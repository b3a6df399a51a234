package calib

import (
	"context"
	"sort"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Correct produces a new trace with profiling overhead subtracted at the
// precise points where book-keeping occurred (paper §3.4).
//
// For each process, every overhead marker contributes its calibrated mean
// cost at its timestamp. Each event timestamp is then shifted left by the
// cumulative estimated overhead that occurred strictly before it:
//
//   - an event that started after k markers begins k mean-costs earlier;
//   - an event that contains markers shrinks by their cost (its start
//     shifts less than its end);
//   - point markers themselves are dropped from the corrected trace.
//
// GPU events are corrected with the same rule. Their true schedule depends
// on device queueing at launch time, which offline analysis cannot perfectly
// reconstruct — this approximation is one source of the residual correction
// bias the paper reports (within ±16%).
//
// Because each occurrence's true cost differs from the calibrated mean,
// corrected timestamps can carry nanosecond-scale inconsistencies (e.g. an
// event starting marginally before its predecessor ends). This residual is
// inherent to mean-based correction; downstream overlap analysis tolerates
// it.
//
// Correct materializes the corrected trace. Analyses instead run a Corrector
// — the same per-event math — as the pipeline's stage (analysis
// Options.Stage), correcting each event in flight under the engine's memory
// budget; the two paths produce byte-identical breakdowns.
func Correct(t *trace.Trace, cal *Calibration) *trace.Trace {
	c := NewCorrector(t, cal)
	out := &trace.Trace{Meta: t.Meta}
	out.Meta.Config = trace.Uninstrumented() // the corrected trace estimates the uninstrumented run
	for _, p := range t.ProcIDs() {
		for _, e := range t.ProcEvents(p) {
			ne := e
			if !c.MapEvent(&ne) {
				continue
			}
			out.Events = append(out.Events, ne)
		}
	}
	out.Sort()
	return out
}

// Corrector is the factored-out per-event correction stage: per-process
// shift indexes frozen at construction, applied to one event at a time.
// It is the analysis pipeline's stage, which is what lets the streaming
// engine produce corrected breakdowns in bounded memory — the index holds
// one (time, cost) pair per calibrated overhead marker, never the events
// themselves.
//
// A Corrector is immutable after construction and safe for concurrent use.
type Corrector struct {
	shifts map[trace.ProcID]shiftIndex
}

// NewCorrector builds the correction stage from a materialized trace.
// Correct is exactly NewCorrector + MapEvent over every event + Sort.
// ProcEvents yields a process's events in start order, so every index is
// built in place, its markers ascending.
func NewCorrector(t *trace.Trace, cal *Calibration) *Corrector {
	c := &Corrector{shifts: map[trace.ProcID]shiftIndex{}}
	for _, p := range t.ProcIDs() {
		var ix shiftIndex
		for _, e := range t.ProcEvents(p) {
			if e.Kind != trace.KindOverhead {
				continue
			}
			if d := cal.MeanFor(e.Overhead, e.Name); d > 0 {
				ix.add(e.Start, d)
			}
		}
		c.shifts[p] = ix
	}
	return c
}

// NewStreamCorrector builds the correction stage from chunked storage with
// one bounded-memory pre-pass that decodes nothing: every relevant chunk is
// scanned once for its overhead markers (trace.Reader.ScanOverhead, which
// checks the chunk as thoroughly as a decode would) and only their (time,
// calibrated cost) pairs are retained. A non-empty procs list restricts the
// pre-pass the same way Options.Procs restricts the analysis: markers of
// other processes are never consulted by MapEvent/MapSpan for surviving
// events, so chunks whose sidecar lists none of the requested processes are
// skipped without a scan. onChunk, when non-nil, is invoked after each chunk
// — skipped or scanned — with the cumulative scanned-event count; ctx cancels
// the pre-pass between chunks.
func NewStreamCorrector(ctx context.Context, r *trace.Reader, cal *Calibration, procs []trace.ProcID, onChunk func(done, total, events int)) (*Corrector, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var filter map[trace.ProcID]bool
	if len(procs) > 0 {
		filter = make(map[trace.ProcID]bool, len(procs))
		for _, p := range procs {
			filter[p] = true
		}
	}
	n := r.NumChunks()
	chunks := make([]int, 0, n)
	for i := 0; i < n; i++ {
		relevant := filter == nil
		if !relevant {
			ix, err := r.Index(i)
			if err != nil {
				return nil, err
			}
			for p := range ix.Procs {
				if filter[p] {
					relevant = true
					break
				}
			}
		}
		if relevant {
			chunks = append(chunks, i)
		}
	}
	// Markers arrive in runs of one process, so the map is touched once per
	// run: ix is shifts[proc]'s index under construction while open is set.
	c := &Corrector{shifts: map[trace.ProcID]shiftIndex{}}
	var (
		ix   shiftIndex
		proc trace.ProcID
		open bool
	)
	unsorted := map[trace.ProcID]bool{}
	collect := func(p trace.ProcID, at vclock.Time, kind trace.OverheadKind, name string) {
		if filter != nil && !filter[p] {
			return
		}
		d := cal.MeanFor(kind, name)
		if d <= 0 {
			return
		}
		if !open || p != proc {
			if open {
				c.shifts[proc] = ix
			}
			ix, proc, open = c.shifts[p], p, true
		}
		if !ix.add(at, d) {
			unsorted[p] = true
		}
	}
	done, events := 0, 0
	// report notifies for chunks [done, upto): the one just scanned and the
	// skipped ones before it.
	report := func(upto int) {
		for ; done < upto; done++ {
			if onChunk != nil {
				onChunk(done+1, n, events)
			}
		}
	}
	for _, i := range chunks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scanned, err := r.ScanOverhead(i, collect)
		if err != nil {
			return nil, err
		}
		report(i)
		events += scanned
		report(i + 1)
	}
	report(n)
	if open {
		c.shifts[proc] = ix
	}
	for p := range unsorted {
		c.shifts[p] = c.shifts[p].resorted()
	}
	return c, nil
}

// MapEvent applies the correction to one event in place: overhead markers
// are dropped (false), every other event's timestamps shift left by the
// cumulative calibrated overhead that preceded them. The math is identical
// to Correct's, including the end-before-start clamp.
func (c *Corrector) MapEvent(e *trace.Event) bool {
	if e.Kind == trace.KindOverhead {
		return false
	}
	ix, ok := c.shifts[e.Proc]
	if !ok || len(ix.times) == 0 {
		return true
	}
	// End ≥ Start, so the second search resumes where the first ended.
	at := ix.rank(e.Start, 0, len(ix.times))
	e.Start = e.Start.Add(-ix.prefix[at])
	e.End = e.End.Add(-ix.prefix[ix.rankFrom(e.End, at)])
	if e.End < e.Start {
		e.End = e.Start
	}
	return true
}

// MapSpan conservatively corrects a chunk sidecar's per-process span. Every
// event the span summarizes has Start, End ∈ [MinStart, MaxEnd], and the
// shift function before(t) is nondecreasing, so shifting MinStart by the
// largest shift any such event can receive (before(MaxEnd)) and MaxEnd by
// the smallest (before(MinStart)) bounds every corrected extent. The
// streaming planner derives chunk relevance and eviction watermarks from
// these bounds, which is what keeps budgeted corrected streaming exact:
// watermarks may only underestimate future corrected start times, never
// overestimate them.
func (c *Corrector) MapSpan(p trace.ProcID, sp trace.ProcSpan) trace.ProcSpan {
	ix, ok := c.shifts[p]
	if !ok || len(ix.times) == 0 {
		return sp
	}
	minShift := ix.before(sp.MinStart)
	maxShift := ix.before(sp.MaxEnd)
	sp.MinStart = sp.MinStart.Add(-maxShift)
	sp.MaxEnd = sp.MaxEnd.Add(-minShift)
	return sp
}

// marker is one overhead occurrence: its instant and calibrated mean cost.
type marker struct {
	t vclock.Time
	d vclock.Duration
}

// shiftIndex answers "how much estimated overhead occurred strictly before
// time t" in O(log n).
type shiftIndex struct {
	times  []vclock.Time
	prefix []vclock.Duration // prefix[i] = total overhead of markers [0, i)
}

// buildShiftFromMarkers sorts the markers by time and folds them into a
// prefix-sum index. Equal-time markers may land in either order without
// affecting any before(t) query, so the order the streaming pre-pass
// collected them in cannot leak into corrected timestamps.
func buildShiftFromMarkers(ms []marker) shiftIndex {
	sort.Slice(ms, func(i, j int) bool { return ms[i].t < ms[j].t })
	ix := shiftIndex{
		times:  make([]vclock.Time, len(ms)),
		prefix: make([]vclock.Duration, len(ms)+1),
	}
	for i, m := range ms {
		ix.times[i] = m.t
		ix.prefix[i+1] = ix.prefix[i] + m.d
	}
	return ix
}

// add appends one marker to an index under construction and reports whether
// the times are still ascending — as a process's events in start order
// always are and markers in storage order all but always are, so both
// constructors build each index in place as its markers arrive. One marker
// out of order leaves the index unusable until resorted has rebuilt it.
func (ix *shiftIndex) add(t vclock.Time, d vclock.Duration) bool {
	if ix.prefix == nil {
		ix.prefix = append(ix.prefix, 0)
	}
	n := len(ix.times)
	ix.times = append(ix.times, t)
	ix.prefix = append(ix.prefix, ix.prefix[n]+d)
	return n == 0 || ix.times[n-1] <= t
}

// resorted is the index of the markers added to ix, whatever their order.
func (ix shiftIndex) resorted() shiftIndex {
	ms := make([]marker, len(ix.times))
	for i, t := range ix.times {
		ms[i] = marker{t, ix.prefix[i+1] - ix.prefix[i]}
	}
	return buildShiftFromMarkers(ms)
}

// before returns cumulative overhead for markers with time < t.
func (ix shiftIndex) before(t vclock.Time) vclock.Duration {
	return ix.prefix[ix.rank(t, 0, len(ix.times))]
}

// rank returns the number of markers with time < t, given that it lies in
// [lo, hi]: a hand-inlined binary search — the closure sort.Search calls per
// probe was a fifth of a corrected analysis's coordinator time.
func (ix shiftIndex) rank(t vclock.Time, lo, hi int) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.times[m] < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// rankFrom is rank for a t whose rank is at least from and usually close to
// it: it gallops — probing from, from+1, from+3, from+7, … — to bracket the
// answer, then searches the bracket.
func (ix shiftIndex) rankFrom(t vclock.Time, from int) int {
	lo, hi := from, len(ix.times)
	for step := 1; lo < hi; step *= 2 {
		probe := min(lo+step-1, hi-1)
		if ix.times[probe] >= t {
			hi = probe
			break
		}
		lo = probe + 1
	}
	return ix.rank(t, lo, hi)
}
