package profiler

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/recycle"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Session is the per-process recording context. It implements cuda.Recorder
// so the simulated CUDA runtime can emit events and book-keeping through it,
// and it provides the user-facing annotation and interception APIs.
//
// A Session is confined to its process's goroutine, like the thread-local
// state of the real profiler.
type Session struct {
	prof   *Profiler
	proc   trace.ProcID
	name   string
	parent trace.ProcID
	clock  *vclock.Clock

	// Recorded events live in events' blocks, never regrown, so recording
	// an event copies nothing and the events stay put: sorted caches their
	// order as keys into the blocks, and readers gather them in that order.
	// ordering is closed once the ordering that wrote sorted is done; it is
	// nil while no ordering covers every recorded event.
	events   recycle.BlockList[trace.Event]
	sorted   sortedView
	ordering chan struct{}

	rootStart vclock.Time
	closed    bool

	phase      string
	phaseStart vclock.Time

	opDepth int

	// counts is the book-keeping occurrences, indexed by kind: Overhead
	// panics on a kind past OverheadCUPTI before it counts one.
	counts [trace.OverheadCUPTI + 1]int

	// ovrng draws book-keeping costs. It is separate from the clock's
	// cost-jitter stream so that enabling or disabling profiler features
	// leaves the workload's own cost draws bit-identical — the
	// determinism assumption delta calibration relies on (paper
	// Appendix C.1 footnote: "ML code is designed to be deterministic
	// given the same random seed").
	ovrng *rand.Rand
}

// Proc returns the session's process ID.
func (s *Session) Proc() trace.ProcID { return s.proc }

// Name returns the process name.
func (s *Session) Name() string { return s.name }

// Clock returns the process's virtual clock.
func (s *Session) Clock() *vclock.Clock { return s.clock }

// blockEvents is the capacity of a session's event blocks: large enough
// that the per-block allocation is noise against 2048 Emit calls, small
// enough that the open block's unused tail is. The first blocks double up
// to it from minBlockEvents, so a process that records a handful of events
// holds a handful of slots. A block's size is a power of two so that an
// event's offset in it takes exactly keyShift bits of its sort key.
const (
	keyShift       = 11
	blockEvents    = 1 << keyShift
	minBlockEvents = 32
)

// Emit records one event into the session buffer. The event must belong to
// this session's process. An event recorded after Close first waits for the
// ordering Close started, which reads the blocks, and leaves the next
// trace to order it in.
func (s *Session) Emit(e trace.Event) {
	if e.Proc != s.proc {
		panic(fmt.Sprintf("profiler: session %q (proc %d) asked to record an event of proc %d", s.name, s.proc, e.Proc))
	}
	if s.closed && s.ordering != nil {
		<-s.ordering
		s.ordering = nil
	}
	*s.events.Add() = e
}

// sortedView is a session's events in trace.Trace.Sort order, left where
// they were recorded: keys[i] locates the i-th event in blocks as
// block<<keyShift | offset, which is also its emission rank. A key holds
// no pointer, so moving one costs no write barrier. The view is read-only:
// blocks are the session's own.
type sortedView struct {
	blocks [][]trace.Event
	keys   []uint32
}

// at is the event key k locates.
func (v sortedView) at(k uint32) *trace.Event {
	return &v.blocks[k>>keyShift][k&(1<<keyShift-1)]
}

// less reports whether the event a locates sorts strictly before b's:
// events of one session share its Proc, which leaves (Start, End
// descending) as trace.Trace.Sort's order.
func (v sortedView) less(a, b uint32) bool {
	ea, eb := v.at(a), v.at(b)
	return ea.Start < eb.Start || ea.Start == eb.Start && ea.End > eb.End
}

// compare is less as the three-way comparison slices.SortStableFunc takes.
func (v sortedView) compare(a, b uint32) int {
	ea, eb := v.at(a), v.at(b)
	if c := cmp.Compare(ea.Start, eb.Start); c != 0 {
		return c
	}
	return cmp.Compare(eb.End, ea.End)
}

// gather appends the events keys locate, in keys' order, to dst.
func (v sortedView) gather(dst []trace.Event, keys []uint32) []trace.Event {
	for _, k := range keys {
		dst = append(dst, *v.at(k))
	}
	return dst
}

// maxShiftsPerKey is what insertion may cost before ordering gives up on
// it: once the keys it has shifted exceed this many per key walked, the
// events are too far out of order and a stable sort finishes the job.
const maxShiftsPerKey = 8

// orderStats is what one ordering did: the keys insertion shifted, and
// whether it gave up and fell back to the stable sort.
type orderStats struct {
	shifts   int
	fellBack bool
}

// extend returns v's order extended to every event in blocks, which hold
// v's events first. The events v has not keyed are keyed behind its sorted
// keys, in emission order, and inserted among them, so the result is the
// order one stable sort of every event, in emission order, gives. A key
// has 32-keyShift bits for the block, so extend panics on more blocks.
func (v sortedView) extend(blocks [][]trace.Event, budget int) (sortedView, orderStats) {
	if len(blocks) > 1<<(32-keyShift) {
		panic(fmt.Sprintf("profiler: %d blocks of events are more than a 32-bit key can locate", len(blocks)))
	}
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	from, keys := len(v.keys), v.keys
	if cap(keys) < n {
		keys = append(make([]uint32, 0, n), keys...)
	}
	rank := 0
	for i, b := range blocks {
		for j := max(from-rank, 0); j < len(b); j++ {
			keys = append(keys, uint32(i)<<keyShift|uint32(j))
		}
		rank += len(b)
	}
	w := sortedView{blocks, keys}
	return w, w.insert(from, budget)
}

// insert orders keys[from:] into the ordered keys[:from] by galloping
// stable insertion. A key that does not sort before its predecessor stays
// where it is, which is where almost every key of a session is: events are
// recorded nearly in start order, and an operation, phase or native call is
// recorded at its end, behind the events it spans. Any other key gallops
// back through the ordered prefix, binary-searches its slot after the keys
// it ties with, and shifts the keys it passes. Once the shifts exceed
// budget per key walked, slices.SortStableFunc orders everything instead:
// insertion moved no key past one it ties with, so the stable sort's
// order is the same either way.
func (v sortedView) insert(from, budget int) orderStats {
	var st orderStats
	keys := v.keys
	for i := max(from, 1); i < len(keys); i++ {
		k := keys[i]
		if !v.less(k, keys[i-1]) {
			continue
		}
		// keys[hi] sorts after k; gallop back until keys[lo-1] does not.
		lo, hi := 0, i-1
		for step := 1; hi-step >= 0; step *= 2 {
			if !v.less(k, keys[hi-step]) {
				lo = hi - step + 1
				break
			}
			hi -= step
		}
		// The slot is the first of keys[lo:hi+1] that k sorts before.
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); v.less(k, keys[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(keys[hi+1:i+1], keys[hi:i])
		keys[hi] = k
		st.shifts += i - hi
		if st.shifts > budget*(i+1-from) {
			st.fellBack = true
			slices.SortStableFunc(keys, v.compare)
			break
		}
	}
	return st
}

// startOrder orders the session's events on a goroutine of its own, unless
// an ordering that covers every recorded event has already started. Close
// starts one, and a trace starts one for any closed session that none
// covers, such as one that recorded events after its last ordering: those
// are ordered in behind it. The goroutine ends once the keys are in place;
// sortedEvents, and an Emit after Close, wait for that.
func (s *Session) startOrder() {
	if s.ordering != nil {
		return
	}
	done := make(chan struct{})
	s.ordering = done
	prev, blocks := s.sorted, s.events.Blocks()
	go func() {
		s.sorted, _ = prev.extend(blocks, maxShiftsPerKey)
		close(done)
	}()
}

// sortedEvents waits for the ordering startOrder started and returns the
// session's events in trace.Trace.Sort order: the keys are cached beside
// the blocks and shared, and nothing is copied — readers gather the events
// through them.
func (s *Session) sortedEvents() sortedView {
	<-s.ordering
	return s.sorted
}

// Overhead executes one occurrence of profiler book-keeping: if the feature
// is enabled, it emits a zero-width marker and advances the clock by the
// hidden true cost. Disabled features cost nothing and leave no marker —
// exactly the behaviour delta calibration exploits.
func (s *Session) Overhead(kind trace.OverheadKind, name string) {
	flags := s.prof.opts.Flags
	var dist vclock.Dist
	switch kind {
	case trace.OverheadAnnotation:
		if !flags.Annotations {
			return
		}
		dist = s.prof.opts.Overheads.Annotation
	case trace.OverheadInterception:
		if !flags.Interception {
			return
		}
		dist = s.prof.opts.Overheads.Interception
	case trace.OverheadCUDAIntercept:
		if !flags.CUDAIntercept {
			return
		}
		dist = s.prof.opts.Overheads.CUDAIntercept
	case trace.OverheadCUPTI:
		if !flags.CUPTI {
			return
		}
		dist = s.prof.opts.Overheads.CUPTI[name]
	default:
		panic(fmt.Sprintf("profiler: unknown overhead kind %v", kind))
	}
	s.counts[kind]++
	now := s.clock.Now()
	s.Emit(trace.Event{
		Kind:     trace.KindOverhead,
		Overhead: kind,
		Proc:     s.proc,
		Start:    now,
		End:      now,
		Name:     name,
	})
	s.clock.Advance(dist.Sample(s.ovrng))
}

// Transition records one language-transition marker at the current instant.
func (s *Session) Transition(label string) {
	now := s.clock.Now()
	s.Emit(trace.Event{
		Kind:  trace.KindTransition,
		Proc:  s.proc,
		Start: now,
		End:   now,
		Name:  label,
	})
}

// SetPhase starts a new training phase, closing the previous one (paper
// §3.1: rls.set_phase).
func (s *Session) SetPhase(name string) {
	s.closePhase()
	s.phase = name
	s.phaseStart = s.clock.Now()
}

func (s *Session) closePhase() {
	if s.phase == "" {
		return
	}
	s.Emit(trace.Event{
		Kind:  trace.KindPhase,
		Proc:  s.proc,
		Start: s.phaseStart,
		End:   s.clock.Now(),
		Name:  s.phase,
	})
	s.phase = ""
}

// Op is an open operation annotation; End closes it. Operations nest
// arbitrarily (paper §3.1: nested `with rls.operation(...)` blocks).
type Op struct {
	s     *Session
	name  string
	start vclock.Time
	done  bool
}

// Operation opens a high-level algorithmic operation annotation.
func (s *Session) Operation(name string) *Op {
	s.Overhead(trace.OverheadAnnotation, name)
	s.opDepth++
	return &Op{s: s, name: name, start: s.clock.Now()}
}

// End closes the operation, emitting its annotation event. Calling End twice
// panics: it indicates a structurally broken workload script.
func (o *Op) End() {
	if o.done {
		panic(fmt.Sprintf("profiler: operation %q ended twice", o.name))
	}
	o.done = true
	o.s.opDepth--
	o.s.Emit(trace.Event{
		Kind:  trace.KindOp,
		Proc:  o.s.proc,
		Start: o.start,
		End:   o.s.clock.Now(),
		Name:  o.name,
	})
	o.s.Overhead(trace.OverheadAnnotation, o.name)
}

// WithOperation runs fn inside an operation annotation.
func (s *Session) WithOperation(name string, fn func()) {
	op := s.Operation(name)
	defer op.End()
	fn()
}

// Python models high-level driver work: it spends virtual time that the
// overlap analysis will attribute to the Python tier (no native event is
// active during it).
func (s *Session) Python(d vclock.Dist) {
	s.clock.Spend(d)
}

// CallSimulator wraps one call into a simulator native library: it records
// the Python→Simulator transition, pays interception book-keeping on entry
// and exit, and emits a Simulator CPU event spanning the body.
func (s *Session) CallSimulator(name string, fn func()) {
	s.nativeCall(trace.CatSimulator, trace.TransPythonToSimulator, name, fn)
}

// CallBackend wraps one call into the ML backend's native library.
func (s *Session) CallBackend(name string, fn func()) {
	s.nativeCall(trace.CatBackend, trace.TransPythonToBackend, name, fn)
}

func (s *Session) nativeCall(cat trace.Category, transition, name string, fn func()) {
	s.Transition(transition)
	// Overhead markers carry the transition label rather than the call
	// name so that validation reports (Figure 11) can split interception
	// overhead into Python↔Backend vs Python↔Simulator stacks.
	s.Overhead(trace.OverheadInterception, transition)
	start := s.clock.Now()
	fn()
	end := s.clock.Now()
	s.Emit(trace.Event{
		Kind:  trace.KindCPU,
		Cat:   cat,
		Proc:  s.proc,
		Start: start,
		End:   end,
		Name:  name,
	})
	s.Overhead(trace.OverheadInterception, transition)
}

// NetSend models transmitting one cross-host message: serialization and
// socket-write time on the sending CPU, recorded as a Network CPU event
// named "net.send:<msgID>". The message id must be globally unique and
// match the receiver's NetRecv id — multihost.Merge pairs the two events
// by id to estimate inter-host clock offsets. Returns the local
// send-completion time (the instant the message is on the wire).
func (s *Session) NetSend(msgID string, cost vclock.Dist) vclock.Time {
	start := s.clock.Now()
	s.clock.Spend(cost)
	end := s.clock.Now()
	s.Emit(trace.Event{
		Kind:  trace.KindCPU,
		Cat:   trace.CatNetwork,
		Proc:  s.proc,
		Start: start,
		End:   end,
		Name:  "net.send:" + msgID,
	})
	return end
}

// NetRecv models receiving the message msgID: the receiving CPU blocks
// until the message is available locally (readyAt, on this session's
// clock), then pays deserialization cost. The whole span — wait plus
// deserialize — is one Network CPU event named "net.recv:<msgID>", which
// is exactly the network-wait time the merged breakdown reports.
func (s *Session) NetRecv(msgID string, readyAt vclock.Time, cost vclock.Dist) {
	start := s.clock.Now()
	if readyAt > start {
		s.clock.AdvanceTo(readyAt)
	}
	s.clock.Spend(cost)
	s.Emit(trace.Event{
		Kind:  trace.KindCPU,
		Cat:   trace.CatNetwork,
		Proc:  s.proc,
		Start: start,
		End:   s.clock.Now(),
		Name:  "net.recv:" + msgID,
	})
}

// Close finalizes the session: it closes any open phase and emits the root
// Python CPU event spanning the process lifetime. The root event makes the
// overlap analysis attribute all time not spent in native libraries to the
// Python tier, which is how the real profiler derives Python time from
// transition timestamps.
func (s *Session) Close() {
	if s.closed {
		return
	}
	if s.opDepth != 0 {
		panic(fmt.Sprintf("profiler: session %q closed with %d open operations", s.name, s.opDepth))
	}
	s.closePhase()
	s.Emit(trace.Event{
		Kind:  trace.KindCPU,
		Cat:   trace.CatPython,
		Proc:  s.proc,
		Start: s.rootStart,
		End:   s.clock.Now(),
		Name:  "python",
	})
	s.closed = true
	s.startOrder()
}

// OverheadCounts returns this session's book-keeping occurrence counts, by
// kind, for the kinds that occurred.
func (s *Session) OverheadCounts() map[trace.OverheadKind]int {
	out := map[trace.OverheadKind]int{}
	for k, n := range s.counts {
		if n > 0 {
			out[trace.OverheadKind(k)] = n
		}
	}
	return out
}

// Elapsed returns the process's current total runtime.
func (s *Session) Elapsed() vclock.Duration {
	return vclock.Duration(s.clock.Now() - s.rootStart)
}
