package profiler

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

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

	// Recorded events live in fixed-capacity blocks: full is the filled
	// ones, cur the open one. A block is never regrown, so recording an
	// event writes it once and copies nothing, and the events stay there:
	// sortedEvents caches their sorted order as keys into the blocks, and
	// readers gather them in that order.
	full   [][]trace.Event
	cur    []trace.Event
	sorted sortedView

	rootStart vclock.Time
	closed    bool

	phase      string
	phaseStart vclock.Time

	opDepth int

	counts map[trace.OverheadKind]int

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
// holds a handful of slots.
const (
	blockEvents    = 2048
	minBlockEvents = 32
)

// Emit records one event into the session buffer. The event must belong to
// this session's process.
func (s *Session) Emit(e trace.Event) {
	if e.Proc != s.proc {
		panic(fmt.Sprintf("profiler: session %q (proc %d) asked to record an event of proc %d", s.name, s.proc, e.Proc))
	}
	if len(s.cur) == cap(s.cur) {
		s.newBlock()
	}
	s.cur = append(s.cur, e)
}

func (s *Session) newBlock() {
	n := minBlockEvents
	if len(s.cur) > 0 {
		s.full = append(s.full, s.cur)
		n = min(2*cap(s.cur), blockEvents)
	}
	s.cur = make([]trace.Event, 0, n)
}

// sortKey is what sortedEvents sorts in place of the events themselves: it
// holds no pointer, so moving one costs no write barrier, and pos says where
// the event is — block<<32 | offset, which is also its emission rank.
type sortKey struct {
	start, end vclock.Time
	pos        uint64
}

// sortedView is a session's events in trace.Trace.Sort order, left where
// they were recorded: keys[i].pos locates the i-th event in blocks. It is
// read-only: blocks are the session's own.
type sortedView struct {
	blocks [][]trace.Event
	keys   []sortKey
}

// gather appends the events keys locate, in keys' order, to dst.
func (v sortedView) gather(dst []trace.Event, keys []sortKey) []trace.Event {
	for _, k := range keys {
		dst = append(dst, v.blocks[k.pos>>32][uint32(k.pos)])
	}
	return dst
}

// sortedEvents returns the session's events in trace.Trace.Sort order. The
// first call after recording sorts one key per event; the keys are cached
// beside the blocks and shared, and nothing is copied — readers gather the
// events through them. Events of one session share its Proc, which leaves
// (Start, End descending) as the order, and the sort is stable, so ties
// keep emission order exactly as a stable sort of the whole trace would.
func (s *Session) sortedEvents() sortedView {
	n := len(s.cur)
	for _, b := range s.full {
		n += len(b)
	}
	if n == len(s.sorted.keys) {
		return s.sorted
	}
	// Events recorded after an earlier call (nothing in this repository
	// does) are keyed behind the sorted ones, where one stable sort of
	// everything would have found them.
	blocks := append(append(make([][]trace.Event, 0, len(s.full)+1), s.full...), s.cur)
	keys := slices.Grow(s.sorted.keys, n-len(s.sorted.keys))
	skip := len(keys)
	for i, b := range blocks {
		for j := range b {
			if skip > 0 {
				skip--
				continue
			}
			keys = append(keys, sortKey{b[j].Start, b[j].End, uint64(i)<<32 | uint64(j)})
		}
	}
	slices.SortStableFunc(keys, func(a, b sortKey) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(b.end, a.end)
	})
	s.sorted = sortedView{blocks, keys}
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
}

// OverheadCounts returns this session's book-keeping occurrence counts.
func (s *Session) OverheadCounts() map[trace.OverheadKind]int {
	out := make(map[trace.OverheadKind]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Elapsed returns the process's current total runtime.
func (s *Session) Elapsed() vclock.Duration {
	return vclock.Duration(s.clock.Now() - s.rootStart)
}
