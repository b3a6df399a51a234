// Package overlap implements RL-Scope's cross-stack event overlap
// computation (paper §3.3).
//
// Raw event traces overwhelm users; what they want is "what percentage of
// the critical path was CPU-bound vs GPU-bound vs both, inside each
// high-level algorithmic operation, and in which tier of the software
// stack". The overlap computation walks the trace left to right and, for
// each elementary interval between event boundaries, attributes the
// interval's duration to a key:
//
//	(innermost active operation, resource set {CPU, GPU, CPU+GPU},
//	 innermost active CPU category)
//
// "Innermost wins" is correct because within one single-threaded process the
// CPU tiers nest like a call stack: Python calls the simulator or the ML
// backend, and the backend calls the CUDA API. GPU events overlap CPU events
// freely — that overlap is precisely what the analysis measures.
//
// The sweep is incremental (see Sweeper): classification state is carried
// across event boundaries by innermost-tracking stacks and GPU counters
// instead of being re-derived per elementary interval, names and categories
// are interned into dense IDs so the hot accumulator is a flat array, and
// all scratch memory is kept across calls in a small bounded pool.
package overlap

import (
	"repro/internal/recycle"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ResourceSet is a bitmask of hardware resources active during an interval.
type ResourceSet uint8

// Resource bits.
const (
	ResCPU ResourceSet = 1 << iota
	ResGPU
)

// String returns the paper's legend name for the resource set.
func (r ResourceSet) String() string {
	switch r {
	case ResCPU:
		return "CPU"
	case ResGPU:
		return "GPU"
	case ResCPU | ResGPU:
		return "CPU + GPU"
	default:
		return "idle"
	}
}

// UntrackedOp is the operation label assigned to time not covered by any
// user annotation.
const UntrackedOp = "(untracked)"

// Key identifies one cell of the overlap breakdown.
type Key struct {
	// Op is the innermost operation annotation active during the
	// interval, or UntrackedOp.
	Op string
	// Res is the set of resources in use.
	Res ResourceSet
	// Cat is the innermost CPU category when ResCPU is set; for GPU-only
	// intervals it is the GPU event category (kernel vs memcpy, with
	// kernels taking precedence when both are in flight).
	Cat trace.Category
}

// Result is the outcome of the overlap computation for one process.
type Result struct {
	// ByKey maps breakdown cells to accumulated duration.
	ByKey map[Key]vclock.Duration
	// Transitions counts language transitions per (operation, label).
	Transitions map[TransitionKey]int
	// Span is the [start, end] extent of the process's events.
	SpanStart, SpanEnd vclock.Time
}

// TransitionKey identifies a transition counter.
type TransitionKey struct {
	Op    string
	Label string
}

// sweepers pools sweep scratch (boundary slices, stacks, interners, the
// dense grids) across Compute calls and Phases; without it every shard of
// every window would re-allocate the lot. Long-lived callers that sweep many
// windows (the analysis worker pool) hold their own Sweeper instead, one per
// worker, borrowed here for the run. A Sweeper whose scratch outgrew
// maxSweeperScratch — a whole-process Compute's — is dropped on PutSweeper
// instead of kept.
var sweepers = recycle.Stack[*Sweeper]{Max: 4} // concurrent borrowers beyond four allocate afresh

const maxSweeperScratch = 2 << 20 // bytes of buffers one idle Sweeper may hold

// Compute runs the overlap sweep over one process's events. The slice may be
// in any order; only KindCPU, KindGPU, KindOp and KindTransition events
// participate.
func Compute(events []trace.Event) *Result {
	sw := GetSweeper()
	res := sw.Compute(events)
	PutSweeper(sw)
	return res
}

// GetSweeper borrows a Sweeper from the package pool — the one put back
// last, or a new one when none is idle; PutSweeper returns it. Callers that
// sweep many windows from one goroutine (the analysis worker pool gives each
// worker its own) borrow once instead of paying a pool round-trip per window.
func GetSweeper() *Sweeper {
	if sw, ok := sweepers.Get(); ok {
		return sw
	}
	return NewSweeper()
}

// PutSweeper returns a borrowed Sweeper to the package pool, which keeps it
// unless the pool is full or the Sweeper's scratch outgrew the bound. The
// Sweeper must not be used after.
func PutSweeper(sw *Sweeper) {
	if sw.scratchBytes() <= maxSweeperScratch {
		sweepers.Put(sw)
	}
}

// innerCPU reports whether a is more deeply nested than b: later start wins;
// at equal starts the higher CPU rank (deeper tier) wins. The remaining
// comparisons only break exact ties, so the choice never depends on input
// order.
func innerCPU(a, b trace.Event) bool {
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	if ar, br := a.Cat.CPURank(), b.Cat.CPURank(); ar != br {
		return ar > br
	}
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Cat != b.Cat {
		return a.Cat > b.Cat
	}
	return a.Name < b.Name
}

// innerOp reports whether op event a is more deeply nested than b: later
// start wins, then earlier end; the name comparison only breaks exact ties
// deterministically.
func innerOp(a, b trace.Event) bool {
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	if a.End != b.End {
		return a.End < b.End
	}
	return a.Name < b.Name
}
