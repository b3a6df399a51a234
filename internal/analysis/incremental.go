package analysis

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// IncrementalStats counts what an Incremental analysis has done so far.
// EventsSwept is the load-bearing one: the acceptance criterion for live
// ingest is that appending one chunk to an N-event trace costs O(chunk),
// independent of N, and that is asserted by watching this counter — not by
// timing.
type IncrementalStats struct {
	// Chunks and Events count what Apply has ingested.
	Chunks, Events int
	// Epochs counts Apply calls: each one is an analysis epoch batching
	// every chunk that arrived since the previous epoch.
	Epochs int
	// Shards counts window sweeps performed, cumulatively. A Results call
	// on a clean state adds zero; after an epoch it adds the number of
	// dirty windows (after splitting). Finer windows mean more, cheaper
	// sweeps: this is a count, EventsSwept is the cost.
	Shards int
	// EventsSwept counts the events handed to the sweeper, cumulatively:
	// the sum over window sweeps of the window's buffer length.
	EventsSwept int
	// Windows is the current total window count across processes.
	Windows int
}

// Incremental is a resumable analysis state for a growing trace: the
// batch pipeline's per-process window state (procState), driven by epochs
// instead of chunks and keeping what it closes. Each event is routed to the
// buffers of the windows it overlaps, and only windows that received events
// are re-swept on the next Results call, each straight from its own buffer
// into its kept result.
//
// A window that has outgrown splitEvents is cut at the median start of its
// events, which keeps the cost of an epoch bounded by the events it brought
// plus a constant, whatever the trace length and arrival order. No watermark
// exists for a trace that is still growing, but the high-water start is the
// next best thing for a stream that arrives in start order: the tail, once
// it holds splitEvents/2 events, is closed at it before its sweep, the way
// the batch run closes it at a watermark. The next in-order epoch then
// dirties only the tail, so each buffered event is swept about once, not
// once when it lands and again when a median split re-dirties the half it
// landed in. Any cut is exact (see window), so Results on a fully-applied
// trace is identical to a fresh Engine run over the sealed directory — the
// live-ingest equivalence the property tests pin down.
//
// Window buffers come from trace.EventBufs: a window that must grow moves
// into a buffer off it, handing its old one back. Release hands back every
// buffer, uncleared — the names their stale events still point at are
// interned strings, which live until the buffer is next filled — so a server
// that seals one trace and opens the next allocates no event storage for
// it. The process states, their windows and the windows' results are the
// Incremental's own: each is built fresh and dies with it.
//
// Incremental is not safe for concurrent use; the serve layer serializes
// epochs and result reads per trace under its analysis lock.
type Incremental struct {
	procs map[trace.ProcID]*procState // nil once released
	stats IncrementalStats
}

// minWindowEvents is the room a window's first buffer is drawn with.
const minWindowEvents = 256

// NewIncremental returns an empty incremental analysis state.
func NewIncremental() *Incremental {
	return &Incremental{procs: map[trace.ProcID]*procState{}}
}

// Release ends the state: every window buffer goes back to
// trace.EventBufs. Only Stats may be called afterwards; a second Release is
// a no-op.
func (inc *Incremental) Release() {
	for _, p := range inc.procs {
		for i := 0; i <= len(p.closed); i++ {
			trace.EventBufs.Put(p.at(i).events)
		}
	}
	inc.procs = nil
}

// Apply ingests one epoch: every chunk that arrived since the last epoch,
// in sequence order. Each event is appended to the buffer of every window
// it overlaps, marking those windows dirty, and raises its process's
// high-water start; a full buffer at least doubles, by a move into one off
// trace.EventBufs. Phase and overhead annotations register their process but
// are not buffered: the sweep reads neither.
func (inc *Incremental) Apply(chunks [][]trace.Event) {
	inc.stats.Epochs++
	for _, events := range chunks {
		inc.stats.Chunks++
		inc.stats.Events += len(events)
		for _, e := range events {
			p := inc.procs[e.Proc]
			if p == nil {
				p = &procState{window: window{lo: vclock.MinTime, hi: vclock.MaxTime}, high: vclock.MinTime}
				inc.procs[e.Proc] = p
				inc.stats.Windows++
			}
			if e.Kind == trace.KindPhase || e.Kind == trace.KindOverhead {
				continue
			}
			// The first window ending after the event's start is the first
			// it can overlap; in-order arrival finds it at the tail.
			i := len(p.closed)
			if e.Start < p.lo {
				i = sort.Search(i, func(j int) bool { return p.closed[j].hi > e.Start })
			}
			for ; i <= len(p.closed) && trace.OverlapsWindow(e, p.at(i).lo, p.at(i).hi); i++ {
				w := p.at(i)
				if len(w.events) == cap(w.events) {
					w.events = trace.EventBufs.Reserve(w.events, max(len(w.events), minWindowEvents))
				}
				w.events = append(w.events, e)
				w.dirty = true
			}
			p.high = max(p.high, e.Start)
			p.acc = nil
		}
	}
}

// Results brings every dirty shard up to date and returns the merged
// per-process breakdowns — the same map a fresh Engine run over the applied
// events produces. filter, when non-nil, restricts both the output and the
// recomputation to the named processes (matching Options.Procs semantics);
// windows of filtered-out processes stay dirty and are swept when next
// asked for. The returned results are shared with later calls and must not
// be modified.
func (inc *Incremental) Results(filter map[trace.ProcID]bool) map[trace.ProcID]*overlap.Result {
	sw := overlap.GetSweeper()
	defer overlap.PutSweeper(sw)
	out := make(map[trace.ProcID]*overlap.Result, len(inc.procs))
	for pid, p := range inc.procs {
		if filter != nil && !filter[pid] {
			continue
		}
		if p.acc == nil {
			p.acc = inc.sweep(p, sw)
		}
		out[pid] = p.acc
	}
	return out
}

// sweep re-sweeps p's dirty windows, each into its kept result, cutting
// first the ones that have outgrown splitEvents, at their median start, and
// the tail once it holds splitEvents/2 events, at the high-water start; it
// returns the merge of all of p's window results in a fresh Result: Results
// shares it with callers.
func (inc *Incremental) sweep(p *procState, sw *overlap.Sweeper) *overlap.Result {
	acc := newResult()
	for i := 0; i <= len(p.closed); i++ {
		w := p.at(i)
		if !w.dirty {
			if w.res != nil {
				MergeResult(acc, w.res)
			}
			continue
		}
		var ok bool
		if n := len(w.events); n > max(splitEvents, w.retry) {
			// Sorted by start first (the sweep is input-order invariant),
			// the part that stays — the left intervals reaching past the
			// cut, then the rest — stays sorted for the next split and
			// keeps the buffer with its spare capacity, where in-order
			// arrivals land.
			slices.SortFunc(w.events, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
			_, _, _, _, ok = p.split(i, w.events[n/2].Start, n/4*3, 0, false)
		} else if i == len(p.closed) && n >= max(splitEvents/2, w.retry) {
			_, _, _, _, ok = p.split(i, p.high, n/4*3, n, true)
		}
		if ok {
			inc.stats.Windows++
			i-- // the part cut off now sits at i: take it first
			continue
		}
		if w.res == nil {
			w.res = new(overlap.Result)
		}
		w.sweep(sw, w.res, acc, nil)
		inc.stats.Shards++
		inc.stats.EventsSwept += len(w.events)
	}
	return acc
}

// Stats returns a snapshot of the cumulative counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }
