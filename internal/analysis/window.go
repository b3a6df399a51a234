package analysis

import (
	"slices"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// splitEvents is the window size that drives every partition: a window
// holding this many events is cut — by the batch pipeline as soon as a
// watermark allows, by Incremental before its next sweep — so no sweep pays
// for an unbounded buffer.
const splitEvents = 4096

// window is one half-open slice [lo, hi) of a process's timeline together
// with the buffer of every event overlapping it, unclipped — the unit the
// batch pipeline and Incremental both sweep. The windows of one process
// partition its whole timeline.
//
// Where the cuts fall is purely a cost decision. The windowed sweep
// (overlap.Sweeper.ComputeWindow) clips accumulation to the window and
// counts point markers by membership while classifying against the
// unclipped events, so an event spanning a cut sits in the buffers on both
// sides without any instant being counted twice, and the per-window results
// of ANY partition merge (MergeResult: commutative integer sums plus span
// extremes) to exactly the whole-timeline sweep.
type window struct {
	lo, hi vclock.Time
	events []trace.Event
	retry  int // buffer length below which a refused cut is not retried
}

// cut closes the prefix [lo, at) of the window: the events overlapping it
// are copied into a buffer taken off free — best fit for room events or for
// their count, whichever is more — and returned, and w shrinks to [at, hi),
// keeping — compacted in place, order preserved — only the events still
// alive at the cut. closed and kept are the summed trace.EventBytes of the
// two sides, taken in the same pass.
//
// The cut is refused (false, nothing taken, only retry touched) when at is
// not past lo or when more than keep events would survive it: a window
// dominated by long enclosing events, or by events sharing one start, which
// no cut divides. Refusing is safe because no result depends on where the
// cuts are; the window is simply not tried again by size until it has
// doubled, so refused attempts stay amortized O(1) per event.
func (w *window) cut(at vclock.Time, keep int, free *freeList, room int) (prefix []trace.Event, closed, kept int64, ok bool) {
	alive, overlapping := 0, 0
	if at > w.lo {
		for _, e := range w.events {
			if !trace.DeadBefore(e, at) {
				alive++
			}
			if trace.OverlapsWindow(e, w.lo, at) {
				overlapping++
			}
		}
	}
	if at <= w.lo || alive > keep {
		w.retry = 2 * len(w.events)
		return nil, 0, 0, false
	}
	prefix = slices.Grow(free.take(max(room, overlapping)), overlapping)
	survivors := w.events[:0]
	for _, e := range w.events {
		eb := int64(trace.EventBytes(e))
		if trace.OverlapsWindow(e, w.lo, at) {
			prefix = append(prefix, e)
			closed += eb
		}
		if !trace.DeadBefore(e, at) {
			survivors = append(survivors, e)
			kept += eb
		}
	}
	w.events, w.lo, w.retry = survivors, at, 0
	return prefix, closed, kept, true
}
