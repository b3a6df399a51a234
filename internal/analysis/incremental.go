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

// incWindow is one persistent window of the incremental state: the shared
// window plus the cached sweep result over its buffer and a dirty bit set
// when an epoch routes a new event in.
type incWindow struct {
	window
	dirty bool
	// res is the last sweep, re-swept in place: its maps outlive the sweeps,
	// on the left part, a split and, emptied, a Release. nil until the
	// window is first swept.
	res *overlap.Result
}

// incProc is the per-process incremental state: an ascending partition of
// the whole timeline [MinTime, MaxTime) into windows, the merge of their
// results, cached while no window is dirty, and the high-water start: the
// largest start Apply has routed into a window buffer, where the tail window
// is closed (see Incremental).
//
// A released state keeps its window list's capacity and, in spare, its
// windows with their results' maps, for the cuts of the process that takes
// it over.
type incProc struct {
	windows []*incWindow
	merged  *overlap.Result
	high    vclock.Time
	spare   []*incWindow
}

// Incremental is a resumable analysis state for a growing trace: the
// serve-side complement of the batch pipeline. Chunks are applied in
// epochs; each event is routed to the buffers of the windows it overlaps,
// and only windows that received events are re-swept on the next Results
// call, each straight from its own buffer. It keeps its own driver because
// its windows are persistent and re-dirtied, where the pipeline's are closed
// once; the window type, its cut, the windowed sweep and the shard merge are
// the pipeline's.
//
// A window that has outgrown splitEvents is cut at the median start of its
// events, which keeps the cost of an epoch bounded by the events it brought
// plus a constant, whatever the trace length and arrival order. No watermark
// exists for a trace that is still growing, but the high-water start is the
// next best thing for a stream that arrives in start order: the tail window
// [lo, MaxTime), once it holds splitEvents/2 events, is closed at it before
// its sweep — the closed window keeps the buffer and the cached result, and
// only the events still alive there move on into a fresh tail. The next
// in-order epoch then dirties only that tail, so each buffered event is
// swept about once, not once when it lands and again when a median split
// re-dirties the half it landed in. Any cut is exact (see window), so
// Results on a fully-applied trace is identical to a fresh Engine run over
// the sealed directory — the live-ingest equivalence the property tests pin
// down.
//
// Window buffers come from a scratch of the pool the batch pipeline's runs
// share (see freeList): a window that must grow moves into a buffer off it,
// handing its old one back, and a median split's left part and a closed
// tail's successor are drawn from it. Release returns every buffer to the
// pool, and every process state with its windows and their results, so a
// server that seals one trace and opens the next allocates no event storage
// for it, and a cut of the next one's, which takes a spare window, result
// maps and all, allocates nothing either.
//
// Incremental is not safe for concurrent use; the serve layer serializes
// epochs and result reads per trace under its analysis lock.
type Incremental struct {
	procs map[trace.ProcID]*incProc
	stats IncrementalStats
	free  *freeList // nil once released
}

// minWindowEvents is the room a window's first buffer is drawn with.
const minWindowEvents = 256

// NewIncremental returns an empty incremental analysis state, drawing its
// buffers from a scratch of the pool.
func NewIncremental() *Incremental {
	return &Incremental{procs: map[trace.ProcID]*incProc{}, free: getScratch()}
}

// Release ends the state: every window buffer and every process state —
// reset to one empty window over the whole timeline, its other windows
// spare — goes back on its scratch and the scratch back to the pool, for the
// next Engine run or Incremental to draw from. Only Stats may be called
// afterwards; a second Release is a no-op.
func (inc *Incremental) Release() {
	if inc.free == nil {
		return
	}
	for _, p := range inc.procs {
		for _, w := range p.windows {
			inc.free.put(w.events)
			if r := w.res; r != nil {
				// Empty, as a window nothing has reached must merge.
				clear(r.ByKey)
				clear(r.Transitions)
				r.SpanStart, r.SpanEnd = 0, 0
			}
			*w = incWindow{res: w.res}
		}
		p.windows[0].lo, p.windows[0].hi = vclock.MinTime, vclock.MaxTime
		p.spare = append(p.spare, p.windows[1:]...)
		clear(p.windows[1:])
		p.windows, p.merged, p.high = p.windows[:1], nil, vclock.MinTime
		inc.free.procs = append(inc.free.procs, p)
	}
	putScratch(inc.free)
	inc.procs, inc.free = nil, nil
}

// Apply ingests one epoch: every chunk that arrived since the last epoch,
// in sequence order. Each event is appended to the buffer of every window
// it overlaps, marking those windows dirty, and raises its process's
// high-water start; a full buffer at least doubles, by a move into one off
// the scratch. Phase and overhead annotations
// register their process but are not buffered: the sweep reads neither.
// After the epoch the scratch is trimmed to the pool's bound.
func (inc *Incremental) Apply(chunks [][]trace.Event) {
	inc.stats.Epochs++
	for _, events := range chunks {
		inc.stats.Chunks++
		inc.stats.Events += len(events)
		for _, e := range events {
			p := inc.procs[e.Proc]
			if p == nil {
				// A released state, if the scratch holds one: it is as
				// new, with spare windows for its cuts.
				if k := len(inc.free.procs); k > 0 {
					p, inc.free.procs = inc.free.procs[k-1], inc.free.procs[:k-1]
				} else {
					p = &incProc{windows: []*incWindow{{window: window{lo: vclock.MinTime, hi: vclock.MaxTime}}}, high: vclock.MinTime}
				}
				inc.procs[e.Proc] = p
				inc.stats.Windows++
			}
			if e.Kind == trace.KindPhase || e.Kind == trace.KindOverhead {
				continue
			}
			// The first window ending after the event's start is the first
			// it can overlap; in-order arrival finds it at the tail.
			i := len(p.windows) - 1
			if e.Start < p.windows[i].lo {
				i = sort.Search(i, func(j int) bool { return p.windows[j].hi > e.Start })
			}
			for ; i < len(p.windows) && trace.OverlapsWindow(e, p.windows[i].lo, p.windows[i].hi); i++ {
				w := p.windows[i]
				if len(w.events) == cap(w.events) {
					w.events = inc.free.reserve(w.events, max(len(w.events), minWindowEvents))
				}
				w.events = append(w.events, e)
				w.dirty = true
			}
			p.high = max(p.high, e.Start)
			p.merged = nil
		}
	}
	inc.free.trim()
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
		if p.merged == nil {
			p.merged = inc.sweep(p, sw)
		}
		out[pid] = p.merged
	}
	return out
}

// sweep re-sweeps p's dirty windows — each into its own cached result —
// cutting first the ones that have outgrown splitEvents, at their median
// start, and the tail once it holds splitEvents/2 events, at the high-water
// start; it returns the merge of all of p's window results in a fresh
// Result: Results shares it with callers.
func (inc *Incremental) sweep(p *incProc, sw *overlap.Sweeper) *overlap.Result {
	res := &overlap.Result{
		ByKey:       map[overlap.Key]vclock.Duration{},
		Transitions: map[overlap.TransitionKey]int{},
	}
	for i := 0; i < len(p.windows); i++ {
		w := p.windows[i]
		if w.dirty {
			for {
				var (
					at      vclock.Time
					handOff bool
				)
				if n := len(w.events); n > max(splitEvents, w.retry) {
					slices.SortFunc(w.events, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
					at = w.events[n/2].Start
				} else if w.hi == vclock.MaxTime && n >= max(splitEvents/2, w.retry) {
					at, handOff = p.high, true
				} else {
					break
				}
				// The right part is a spare window, if p has one; a
				// refused cut leaves it spare.
				var right *incWindow
				if k := len(p.spare); k > 0 {
					right, p.spare = p.spare[k-1], p.spare[:k-1]
				} else {
					right = new(incWindow)
				}
				if !w.split(right, at, handOff, inc.free) {
					p.spare = append(p.spare, right)
					break
				}
				p.windows = slices.Insert(p.windows, i+1, right)
				inc.stats.Windows++
			}
			if w.res == nil {
				w.res = new(overlap.Result)
			}
			sw.ComputeWindowInto(w.res, w.events, w.lo, w.hi)
			w.dirty = false
			inc.stats.Shards++
			inc.stats.EventsSwept += len(w.events)
		}
		if w.res != nil {
			MergeResult(res, w.res)
		}
	}
	return res
}

// split cuts the window at at, shrinking w to the left part [lo, at) and
// making right the right part [at, hi), both dirty; the left part keeps w's
// cached result, to be re-swept into, and right the one it holds, if any.
// Without handOff the cut is a median one: the buffer was sorted by start
// first (the sweep is input-order invariant), so the right part — the left
// intervals reaching past the cut, then the rest — stays sorted for the
// next split and keeps the old buffer with its spare capacity, which is
// where in-order arrivals will land, and the left part moves to the
// best-fitting buffer off free. With handOff the cut closes the tail at its
// high-water start: the left part keeps the buffer whole, and the events
// still alive at the cut move into a buffer off free with room for as many
// events as the tail gathered, ready for the next epoch. A split that would
// leave the right part above ¾ of the buffer is refused (false, right
// untouched); see window.cut.
func (w *incWindow) split(right *incWindow, at vclock.Time, handOff bool, free *freeList) bool {
	n, lo, room := len(w.events), w.lo, 0
	if handOff {
		room = n
	}
	left, _, _, _, ok := w.cut(at, n/4*3, free, room, handOff)
	if !ok {
		return false
	}
	right.window, right.dirty = w.window, true
	w.window, w.dirty = window{lo: lo, hi: at, events: left}, true
	return true
}

// Stats returns a snapshot of the cumulative counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }
