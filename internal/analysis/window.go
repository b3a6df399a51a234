package analysis

import (
	"slices"
	"sync"

	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// splitEvents is the window size that drives every partition: a window
// holding this many events is cut — by the batch pipeline as soon as a
// watermark allows, by Incremental before its next sweep — so no sweep pays
// for an unbounded buffer.
const splitEvents = 4096

// window is one half-open slice [lo, hi) of a process's timeline together
// with the buffer of every event overlapping it, unclipped — the unit every
// sweep computes. The windows of one process partition its whole timeline.
//
// Where the cuts fall is purely a cost decision. The windowed sweep
// (overlap.Sweeper.ComputeWindowInto) clips accumulation to the window and
// counts point markers by membership while classifying against the
// unclipped events, so an event spanning a cut sits in the buffers on both
// sides without any instant being counted twice, and the per-window results
// of ANY partition merge (MergeResult: commutative integer sums plus span
// extremes) to exactly the whole-timeline sweep.
type window struct {
	lo, hi vclock.Time
	events []trace.Event
	retry  int // buffer length below which a refused cut is not retried
	// dirty marks events routed in since the last sweep, and res is that
	// sweep where one is kept (Incremental): re-swept in place, its maps
	// outlive the sweeps and a cut. A window the batch run sweeps once
	// keeps none.
	dirty bool
	res   *overlap.Result
}

// cut closes the prefix [lo, at) of the window and shrinks w to [at, hi),
// keeping only the events still alive at the cut, order preserved. It
// returns the closed prefix's buffer; n, the count of the buffer's events
// that overlap [lo, at); and closed and kept, the summed trace.EventBytes of
// those and of the survivors, taken in the pass that moves them.
//
// One side moves to a buffer from trace.EventBufs.Get — best fit for room
// events or for its count, whichever is more — and the other keeps w's
// buffer; the caller picks which. With handOff the survivors move and the
// prefix is w's buffer whole: the overlapping events among others wholly
// outside [lo, at), which the windowed sweep skips (see
// overlap.Sweeper.ComputeWindowInto) and so costs no copy. Otherwise the
// overlapping events are copied out and the survivors compacted in place.
//
// The cut is refused (false, nothing taken, only retry touched) when at is
// not past lo or when more than keep events would survive it: a window
// dominated by long enclosing events, or by events sharing one start, which
// no cut divides. Refusing is safe because no result depends on where the
// cuts are; the window is simply not tried again by size until it has
// doubled, so refused attempts stay amortized O(1) per event.
func (w *window) cut(at vclock.Time, keep, room int, handOff bool) (prefix []trace.Event, n int, closed, kept int64, ok bool) {
	alive := 0
	if at > w.lo {
		for _, e := range w.events {
			if !trace.DeadBefore(e, at) {
				alive++
			}
			if trace.OverlapsWindow(e, w.lo, at) {
				n++
			}
		}
	}
	if at <= w.lo || alive > keep {
		w.retry = 2 * len(w.events)
		return nil, 0, 0, 0, false
	}
	survivors := w.events[:0]
	if handOff {
		prefix, survivors = w.events, trace.EventBufs.Get(max(room, alive), alive)
	} else {
		prefix = trace.EventBufs.Get(max(room, n), n)
	}
	for _, e := range w.events {
		eb := int64(trace.EventBytes(e))
		if trace.OverlapsWindow(e, w.lo, at) {
			if !handOff {
				prefix = append(prefix, e)
			}
			closed += eb
		}
		if !trace.DeadBefore(e, at) {
			survivors = append(survivors, e)
			kept += eb
		}
	}
	w.events, w.lo, w.retry = survivors, at, 0
	return prefix, n, closed, kept, true
}

// sweep computes w into res — its kept result, or a worker's scratch — and
// merges that into acc, under mu when other goroutines merge into acc too.
func (w *window) sweep(sw *overlap.Sweeper, res, acc *overlap.Result, mu *sync.Mutex) {
	sw.ComputeWindowInto(res, w.events, w.lo, w.hi)
	w.dirty = false
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	MergeResult(acc, res)
}

// newResult returns an empty Result to merge window results into.
func newResult() *overlap.Result {
	return &overlap.Result{ByKey: map[overlap.Key]vclock.Duration{}, Transitions: map[overlap.TransitionKey]int{}}
}

// procState is one process's window state, which both drivers run on: an
// ascending partition of the whole timeline into the closed windows and the
// tail [lo, MaxTime) after them, the process's accumulator, the high-water
// start — the largest start routed into a window so far — and the cursor at
// which the correction stage's searches for the process resume.
//
// once is the batch run's policy: a window closed off the tail is swept
// once, on the worker pool, and folded into acc, so closed stays empty and
// no window keeps a result. Without it (Incremental) a closed window stays
// in the partition with its kept result, and acc is the merge of all of
// them while no window is dirty.
type procState struct {
	window // the tail
	closed []*window
	acc    *overlap.Result
	high   vclock.Time
	cur    calib.Cursor
	once   bool

	// The batch run's plan and residency estimate (see pipeline).
	proc  trace.ProcID
	left  int   // events the chunks not yet decoded hold for the process
	bytes int64 // estimated footprint of the tail's events
	// watermark is the minimum (stage-mapped) start over the chunks not yet
	// decoded that hold the process, MaxTime once none is left: no future
	// event can begin before it, so the prefix [lo, watermark) is complete.
	watermark vclock.Time
}

// at returns window i of the partition: closed[i], or the tail at
// len(closed).
func (p *procState) at(i int) *window {
	if i == len(p.closed) {
		return &p.window
	}
	return p.closed[i]
}

// split cuts window i at at (see window.cut): the window keeps [at, hi), and
// the part before, [lo, at), is returned dirty, with the count and summed
// trace.EventBytes of its events that overlap it and the survivors' bytes.
// Closing the tail — at the batch run's watermark, which no later event
// starts before, or at Incremental's high-water start, which an in-order
// stream does not come back behind — uses the hand-off form; Incremental's
// median split uses the copying form, because its left part persists and an
// out-of-order arrival would re-sweep what it carries past the cut. Unless
// the state sweeps once, the part also joins the partition at i, in a new
// window. ok is false when the cut was refused.
func (p *procState) split(i int, at vclock.Time, keep, room int, handOff bool) (closed window, n int, bytes, kept int64, ok bool) {
	w := p.at(i)
	lo := w.lo
	prefix, n, bytes, kept, ok := w.cut(at, keep, room, handOff)
	if !ok {
		return window{}, 0, 0, 0, false
	}
	closed = window{lo: lo, hi: at, events: prefix, dirty: true}
	if !p.once {
		left := new(window)
		*left = closed
		p.closed = slices.Insert(p.closed, i, left)
	}
	return closed, n, bytes, kept, true
}
