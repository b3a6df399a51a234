package overlap

import (
	"cmp"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Sweeper is the reusable scratch state of the incremental overlap sweep.
// Boundaries are never sorted as a whole: events arrive in the trace's
// canonical order (start ascending), so their opens are already in time
// order and their closes come out of a small heap of the active events (see
// orderOpens and nextBound) — O(n log k) for k events active at once, with a
// sort of the opens only for input that is out of order. Every elementary
// interval is then classified in O(1) amortized from state maintained across
// boundaries instead of re-derived by scanning the active set.
//
// The state machine exploits the nesting structure the package doc proves:
// within one process, CPU events and operation annotations nest like call
// stacks, so the innermost active event of each kind is tracked with a
// stack. The stack is ordered by the innermost-wins comparator (innerCPU /
// innerOp) at all times: a later-starting event is always more deeply
// nested than everything already active, and events opening at the same
// instant are pushed outermost-first (orderOpens guarantees it).
// Adversarial inputs — partially overlapping "nested" events whose closes
// arrive in non-LIFO order — cannot break the ordering, because the
// comparator depends only on immutable event fields; a non-LIFO close is
// simply marked dead in place and popped lazily when it surfaces. GPU
// events never nest meaningfully and only contribute a resource bit and a
// label — kernel when any kernel is in flight (a counter), otherwise the
// category of the latest-starting active device event (a stack). A lone
// non-kernel device event — even one decoded with an out-of-domain
// category, which the chunk reader admits unvalidated — keeps its own
// category, matching the old sweep; when several *distinct* non-kernel
// categories overlap (impossible in a validated trace, where non-kernel
// means memcpy) the latest-starting one wins, a deterministic refinement
// of the old sweep's map-iteration-order pick.
//
// Operation names and categories are interned into dense small-int IDs at
// sweep start, so the hot accumulator is a flat []vclock.Duration indexed
// by a packed (opID, resource set, catID) code; the public map-shaped
// Result is materialized once at the end. Transition markers ride the same
// pass: the first collects each marker inside the window as an (instant,
// label) pair, and the boundary loop scopes every marker to the innermost
// operation on the stack when it is reached — the state after every
// boundary at or before its instant — so a window runs orderOpens and the
// close heap once, and its markers are counted in a dense (opID, labelID)
// grid. All buffers are retained across calls, so a Sweeper reused over
// many windows (the analysis worker pool does this) allocates nothing per
// sweep beyond the Result it fills.
//
// A Sweeper is not safe for concurrent use; the package-level Compute and
// Phases borrow one from a small bounded pool (GetSweeper).
type Sweeper struct {
	bounds  []boundary // the opens, in openSorter order once orderOpens ran
	next    int        // the first open nextBound has not yet delivered
	closes  []boundary // min-heap (closeBefore) of the closes of the active events
	closed  boundary   // the close nextBound delivered last
	cpu     innerStack
	ops     innerStack
	gpu     innerStack
	dead    []bool // per-event lazy close marks for non-LIFO orders
	opIDs   map[string]int32
	opNames []string
	catSlot [256]int32 // Category -> interned slot+1; 0 means unassigned
	cats    []trace.Category
	accum   []vclock.Duration // dense (opID, res, catID) accumulator

	// Transition scoping: the window's markers in time order, their
	// interned labels, and the dense (opID, labelID) counts.
	marks    []mark
	labels   []string
	labelIDs map[string]int32 // labels past the first scanLabels
	counts   []int

	sorter openSorter
}

// mark is one transition marker inside the window: its instant, its
// interned label and, once the sweep has passed it, the interned ID of the
// innermost operation covering it (0, UntrackedOp, when none does).
type mark struct {
	t     vclock.Time
	label int32
	op    int32
}

// NewSweeper returns an empty Sweeper. The zero value is also usable; New
// exists for symmetry with the rest of the codebase.
func NewSweeper() *Sweeper { return &Sweeper{} }

// scratchBytes is the memory the Sweeper's buffers hold, its interner maps
// aside: what keeping it idle costs.
func (sw *Sweeper) scratchBytes() int {
	entries := cap(sw.cpu.entries) + cap(sw.ops.entries) + cap(sw.gpu.entries)
	return (cap(sw.bounds)+cap(sw.closes))*int(unsafe.Sizeof(boundary{})) +
		cap(sw.dead) +
		entries*int(unsafe.Sizeof(stackEntry{})) +
		cap(sw.accum)*int(unsafe.Sizeof(vclock.Duration(0))) +
		cap(sw.marks)*int(unsafe.Sizeof(mark{})) +
		cap(sw.counts)*int(unsafe.Sizeof(0))
}

// boundary is one endpoint of an interval event. id carries the interned
// category slot (KindCPU, KindGPU) or the interned operation ID (KindOp), so
// applying a boundary never touches the event table. Only opens are stored
// per event; each carries its event's end, from which nextBound makes the
// close when it delivers the open.
type boundary struct {
	t    vclock.Time
	end  vclock.Time
	ev   int32
	id   int32
	kind trace.EventKind
	open bool
}

// stackEntry is one active event on an innermost-tracking stack.
type stackEntry struct {
	ev int32
	id int32
}

// innerStack tracks the active events of one kind, ordered outermost to
// innermost. Closes that do not match the top mark the entry dead; dead
// entries are popped when they surface, so every entry is pushed and popped
// exactly once — O(1) amortized per boundary.
type innerStack struct {
	entries []stackEntry
}

func (st *innerStack) reset() { st.entries = st.entries[:0] }

func (st *innerStack) push(e stackEntry) { st.entries = append(st.entries, e) }

func (st *innerStack) close(ev int32, dead []bool) {
	es := st.entries
	for len(es) > 0 && dead[es[len(es)-1].ev] {
		es = es[:len(es)-1]
	}
	if len(es) > 0 && es[len(es)-1].ev == ev {
		es = es[:len(es)-1]
	} else {
		dead[ev] = true
	}
	st.entries = es
}

// top returns the innermost live entry, discarding dead entries on the way.
func (st *innerStack) top(dead []bool) (stackEntry, bool) {
	es := st.entries
	for len(es) > 0 {
		if e := es[len(es)-1]; !dead[e.ev] {
			st.entries = es
			return e, true
		}
		es = es[:len(es)-1]
	}
	st.entries = es
	return stackEntry{}, false
}

// Compute runs the sweep over one process's events using this Sweeper's
// buffers. See the package-level Compute for semantics.
func (sw *Sweeper) Compute(events []trace.Event) *Result {
	res := new(Result)
	sw.ComputeWindowInto(res, events, vclock.MinTime, vclock.MaxTime)
	return res
}

// ComputeWindowInto runs the overlap sweep restricted to the half-open
// window [lo, hi) into res, whose maps are cleared and refilled (and
// allocated if nil): only time inside the window is accumulated and only
// transition markers with lo <= t < hi are counted. Events are NOT clipped —
// every instant inside the window is classified against the original event
// boundaries, so summing the results of a window partition reproduces
// Compute over the full timeline exactly. This is the primitive the sharded
// analysis engine (internal/analysis) parallelizes over; it folds each
// window's result into an aggregate and reuses one Result per worker, so
// the per-window cost stays out of the allocator entirely.
func (sw *Sweeper) ComputeWindowInto(res *Result, events []trace.Event, lo, hi vclock.Time) {
	if res.ByKey == nil {
		res.ByKey = map[Key]vclock.Duration{}
	} else {
		clear(res.ByKey)
	}
	if res.Transitions == nil {
		res.Transitions = map[TransitionKey]int{}
	} else {
		clear(res.Transitions)
	}
	res.SpanStart, res.SpanEnd = 0, 0

	// Pass 1: intern names, categories and labels, and collect the opens of
	// the window-relevant intervals and the markers inside the window. Span
	// uses the unclipped extent of included events so a partition of windows
	// merges to the span Compute reports.
	sw.resetInterners()
	if cap(sw.dead) < len(events) {
		sw.dead = make([]bool, len(events))
	} else {
		sw.dead = sw.dead[:len(events)]
		clear(sw.dead)
	}
	sw.bounds, sw.marks = sw.bounds[:0], sw.marks[:0]
	spanSet, marksInTime := false, true
	for i, e := range events {
		switch e.Kind {
		case trace.KindTransition:
			if e.Start < lo || e.Start >= hi {
				continue
			}
			if n := len(sw.marks); n > 0 && sw.marks[n-1].t > e.Start {
				marksInTime = false
			}
			sw.marks = append(sw.marks, mark{t: e.Start, label: sw.internLabel(e.Name)})
		case trace.KindCPU, trace.KindGPU, trace.KindOp:
			if e.End <= e.Start {
				continue // zero-width intervals contribute nothing
			}
			if e.End <= lo || e.Start >= hi {
				continue // entirely outside the window
			}
			var id int32
			switch e.Kind {
			case trace.KindCPU, trace.KindGPU:
				id = sw.internCat(e.Cat)
			case trace.KindOp:
				id = sw.internOp(e.Name)
			}
			sw.bounds = append(sw.bounds, boundary{e.Start, e.End, int32(i), id, e.Kind, true})
			if !spanSet || e.Start < res.SpanStart {
				res.SpanStart = e.Start
			}
			if !spanSet || e.End > res.SpanEnd {
				res.SpanEnd = e.End
			}
			spanSet = true
		}
	}
	sw.orderOpens(events)
	if !marksInTime {
		slices.SortFunc(sw.marks, func(a, b mark) int { return cmp.Compare(a.t, b.t) })
	}

	// The dense accumulator: (opID, resource set, catID) -> duration.
	nCats := len(sw.cats)
	grid := len(sw.opNames) * 4 * nCats
	if cap(sw.accum) < grid {
		sw.accum = make([]vclock.Duration, grid)
	} else {
		sw.accum = sw.accum[:grid]
		clear(sw.accum)
	}
	kernelCat := sw.catSlot[trace.CatGPUKernel] - 1 // -1 when no kernels exist

	// Pass 2: the sweep proper. Classification state persists across
	// elementary intervals; each boundary updates it in O(1) amortized, and
	// each interval reads the stack tops directly. Before a boundary is
	// applied, the markers before its instant take the innermost operation
	// as it stands: the state after every boundary at or before them, with
	// closes before opens at one instant. Markers past the last boundary
	// keep op 0, UntrackedOp.
	sw.cpu.reset()
	sw.ops.reset()
	sw.gpu.reset()
	kernels := 0
	var prev vclock.Time
	first := true
	marks, nextMark := sw.marks, 0
	for b := sw.nextBound(); b != nil; b = sw.nextBound() {
		if nextMark < len(marks) && marks[nextMark].t < b.t {
			op := int32(0)
			if opTop, ok := sw.ops.top(sw.dead); ok {
				op = opTop.id
			}
			for ; nextMark < len(marks) && marks[nextMark].t < b.t; nextMark++ {
				marks[nextMark].op = op
			}
		}
		if !first && b.t > prev {
			// Accumulate only the part of [prev, t) inside [lo, hi).
			s, e := prev, b.t
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			if e > s {
				cpuTop, cpuOK := sw.cpu.top(sw.dead)
				gpuTop, gpuOK := sw.gpu.top(sw.dead)
				if cpuOK || gpuOK {
					opID := int32(0)
					if opTop, ok := sw.ops.top(sw.dead); ok {
						opID = opTop.id
					}
					var rset, cat int32
					if cpuOK {
						rset = int32(ResCPU)
						cat = cpuTop.id
					}
					if gpuOK {
						rset |= int32(ResGPU)
						if !cpuOK {
							if kernels > 0 {
								cat = kernelCat
							} else {
								cat = gpuTop.id
							}
						}
					}
					sw.accum[(opID*4+rset)*int32(nCats)+cat] += e.Sub(s)
				}
			}
		}
		switch b.kind {
		case trace.KindCPU:
			if b.open {
				sw.cpu.push(stackEntry{b.ev, b.id})
			} else {
				sw.cpu.close(b.ev, sw.dead)
			}
		case trace.KindOp:
			if b.open {
				sw.ops.push(stackEntry{b.ev, b.id})
			} else {
				sw.ops.close(b.ev, sw.dead)
			}
		case trace.KindGPU:
			if b.open {
				sw.gpu.push(stackEntry{b.ev, b.id})
				if b.id == kernelCat {
					kernels++
				}
			} else {
				sw.gpu.close(b.ev, sw.dead)
				if b.id == kernelCat {
					kernels--
				}
			}
		}
		prev = b.t
		first = false
	}

	// Materialize the dense grid into the public map shape.
	for op := range sw.opNames {
		for rset := 1; rset < 4; rset++ {
			base := (op*4 + rset) * nCats
			for c := 0; c < nCats; c++ {
				if d := sw.accum[base+c]; d != 0 {
					res.ByKey[Key{Op: sw.opNames[op], Res: ResourceSet(rset), Cat: sw.cats[c]}] = d
				}
			}
		}
	}

	sw.countTransitions(res)
}

// countTransitions counts the scoped markers in the dense (opID, labelID)
// grid and materializes the grid into the public map shape once, the way
// ByKey is. A window whose grid would pass maxTransitionCells — thousands of
// distinct operations and labels, which only an unvalidated trace carries —
// counts by key instead, so no window sizes the grid quadratically.
func (sw *Sweeper) countTransitions(res *Result) {
	nLabels := len(sw.labels)
	grid := len(sw.opNames) * nLabels
	if grid > maxTransitionCells {
		for _, m := range sw.marks {
			res.Transitions[TransitionKey{Op: sw.opNames[m.op], Label: sw.labels[m.label]}]++
		}
		return
	}
	if cap(sw.counts) < grid {
		sw.counts = make([]int, grid)
	} else {
		sw.counts = sw.counts[:grid]
		clear(sw.counts)
	}
	for _, m := range sw.marks {
		sw.counts[int(m.op)*nLabels+int(m.label)]++
	}
	for op, name := range sw.opNames {
		for l, n := range sw.counts[op*nLabels : (op+1)*nLabels] {
			if n != 0 {
				res.Transitions[TransitionKey{Op: name, Label: sw.labels[l]}] = n
			}
		}
	}
}

// maxTransitionCells bounds the dense transition grid of one window.
const maxTransitionCells = 1 << 16

func (sw *Sweeper) resetInterners() {
	if sw.opIDs == nil {
		sw.opIDs = make(map[string]int32)
	} else {
		clear(sw.opIDs)
	}
	sw.opNames = append(sw.opNames[:0], UntrackedOp)
	// Seed the untracked name so an operation literally named UntrackedOp
	// shares its ID (and therefore its Key) instead of materializing a
	// second, clobbering entry.
	sw.opIDs[UntrackedOp] = 0
	for _, c := range sw.cats {
		sw.catSlot[c] = 0
	}
	sw.cats = sw.cats[:0]
	sw.labels = sw.labels[:0]
	clear(sw.labelIDs)
}

func (sw *Sweeper) internOp(name string) int32 {
	if id, ok := sw.opIDs[name]; ok {
		return id
	}
	id := int32(len(sw.opNames))
	sw.opIDs[name] = id
	sw.opNames = append(sw.opNames, name)
	return id
}

// internLabel interns a transition label. A trace has a handful, found by a
// scan of the first scanLabels; a window with more — an unvalidated trace
// may carry any — finds the rest in a map, so interning stays O(1).
func (sw *Sweeper) internLabel(name string) int32 {
	for i, l := range sw.labels[:min(len(sw.labels), scanLabels)] {
		if l == name {
			return int32(i)
		}
	}
	if id, ok := sw.labelIDs[name]; ok {
		return id
	}
	id := int32(len(sw.labels))
	sw.labels = append(sw.labels, name)
	if id >= scanLabels {
		if sw.labelIDs == nil {
			sw.labelIDs = make(map[string]int32)
		}
		sw.labelIDs[name] = id
	}
	return id
}

const scanLabels = 8

func (sw *Sweeper) internCat(c trace.Category) int32 {
	if s := sw.catSlot[c]; s != 0 {
		return s - 1
	}
	sw.cats = append(sw.cats, c)
	sw.catSlot[c] = int32(len(sw.cats))
	return int32(len(sw.cats) - 1)
}

// orderOpens puts the collected opens into the order the sweep applies them
// in — by time, and at one instant by kind, then outermost-first within a
// kind, which is what lets the sweep push them onto the stacks in nesting
// order — and readies nextBound. Events reach the sweep in the trace's
// canonical per-process order (start ascending), so the opens are normally in
// time order already: one pass verifies that and repairs only the runs of
// opens that share an instant. Input that fails the check has its opens
// sorted whole and then takes the same merge.
func (sw *Sweeper) orderOpens(events []trace.Event) {
	sw.next, sw.closes = 0, sw.closes[:0]
	s, b := &sw.sorter, sw.bounds
	s.events = events
	inTime := true
	for i := 1; i < len(b) && inTime; i++ {
		inTime = b[i-1].t <= b[i].t
	}
	if !inTime {
		s.bounds = b
		sort.Sort(s)
	} else {
		for i := 0; i < len(b); {
			j, inOrder := i+1, true
			for ; j < len(b) && b[j].t == b[i].t; j++ {
				inOrder = inOrder && s.before(&b[j-1], &b[j])
			}
			if !inOrder {
				s.bounds = b[i:j]
				sort.Sort(s)
			}
			i = j
		}
	}
	s.bounds, s.events = nil, nil
}

// nextBound delivers the boundaries in sweep order — each valid until the
// next call, nil after the last: the ordered opens merged with the closes of
// the events they opened, a close before an open at one instant so
// back-to-back intervals never appear concurrent. Delivering an open queues
// its close, which lies strictly later (zero-width events never get here), so
// the closes need no array of their own: they wait in a min-heap that holds
// only the events active at once. Close order at one instant is immaterial
// (lazy deletion absorbs it) and tied down by closeBefore only for
// determinism.
func (sw *Sweeper) nextBound() *boundary {
	h := sw.closes
	if sw.next < len(sw.bounds) {
		if o := &sw.bounds[sw.next]; len(h) == 0 || o.t < h[0].t {
			sw.next++
			// Sift the close up from a new leaf.
			c := boundary{t: o.end, ev: o.ev, id: o.id, kind: o.kind}
			i := len(h)
			h = append(h, c)
			for i > 0 {
				parent := (i - 1) / 2
				if !closeBefore(&c, &h[parent]) {
					break
				}
				h[i] = h[parent]
				i = parent
			}
			h[i] = c
			sw.closes = h
			return o
		}
	} else if len(h) == 0 {
		return nil
	}
	// Pop the earliest close: sift the last leaf down from the root.
	sw.closed = h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		child := 2*i + 1
		if child >= len(h) {
			if i < len(h) {
				h[i] = last
			}
			break
		}
		if child+1 < len(h) && closeBefore(&h[child+1], &h[child]) {
			child++
		}
		if !closeBefore(&h[child], &last) {
			h[i] = last
			break
		}
		h[i] = h[child]
		i = child
	}
	sw.closes = h
	return &sw.closed
}

// closeBefore orders the closes: by time, then kind, then event.
func closeBefore(a, b *boundary) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return eventOrder(a, b)
}

// openSorter orders opens, as a concrete sort.Interface kept in the Sweeper:
// sort.Slice's reflection swapper allocates per call and shows up at
// tiny-trace scale.
type openSorter struct {
	bounds []boundary
	events []trace.Event
}

func (s *openSorter) Len() int           { return len(s.bounds) }
func (s *openSorter) Swap(i, j int)      { s.bounds[i], s.bounds[j] = s.bounds[j], s.bounds[i] }
func (s *openSorter) Less(i, j int) bool { return s.before(&s.bounds[i], &s.bounds[j]) }

// before reports whether open a is applied before open b.
func (s *openSorter) before(a, b *boundary) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind == b.kind {
		switch a.kind {
		case trace.KindCPU:
			if innerCPU(s.events[a.ev], s.events[b.ev]) {
				return false // a is more inner: push it later
			}
			if innerCPU(s.events[b.ev], s.events[a.ev]) {
				return true
			}
		case trace.KindOp:
			if innerOp(s.events[a.ev], s.events[b.ev]) {
				return false
			}
			if innerOp(s.events[b.ev], s.events[a.ev]) {
				return true
			}
		}
	}
	return eventOrder(a, b)
}

// eventOrder is the deterministic fallback ordering for boundaries whose
// relative order cannot affect the sweep.
func eventOrder(a, b *boundary) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.ev < b.ev
}
