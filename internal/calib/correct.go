package calib

import (
	"context"
	"math"
	"sort"

	"repro/internal/recycle"
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
		var cur Cursor
		for _, e := range t.ProcEvents(p) {
			ne := e
			if !c.MapEvent(&ne, &cur) {
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
// built on the in-order path, its markers ascending.
func NewCorrector(t *trace.Trace, cal *Calibration) *Corrector {
	c := &Corrector{shifts: map[trace.ProcID]shiftIndex{}}
	for _, p := range t.ProcIDs() {
		l := newMarkerLog()
		for _, e := range t.ProcEvents(p) {
			if e.Kind != trace.KindOverhead {
				continue
			}
			if d := cal.MeanFor(e.Overhead, e.Name); d > 0 {
				l.add(e.Start, d)
			}
		}
		c.shifts[p] = l.index()
	}
	return c
}

// NewStreamCorrector builds the correction stage from chunked storage with
// one bounded-memory pre-pass that decodes nothing: every relevant chunk is
// scanned once for its overhead markers (trace.Reader.ScanOverhead, which
// checks the chunk as thoroughly as a decode would) and only their (time,
// calibrated cost) pairs are retained, in a markerLog per process — so each
// index is allocated once, at its exact length, when the pre-pass is over. A
// non-empty procs list restricts the pre-pass the same way Options.Procs
// restricts the analysis: markers of other processes are never consulted by
// MapEvent/MapSpan for surviving events, so chunks whose sidecar lists none
// of the requested processes are skipped without a scan. onChunk, when non-nil, is invoked after each chunk
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
	// run: l is logs[proc] once a marker has been kept.
	logs := map[trace.ProcID]*markerLog{}
	var (
		l    *markerLog
		proc trace.ProcID
	)
	collect := func(p trace.ProcID, at vclock.Time, kind trace.OverheadKind, name string) {
		if filter != nil && !filter[p] {
			return
		}
		d := cal.MeanFor(kind, name)
		if d <= 0 {
			return
		}
		if l == nil || p != proc {
			if l, proc = logs[p], p; l == nil {
				l = newMarkerLog()
				logs[p] = l
			}
		}
		l.add(at, d)
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
	c := &Corrector{shifts: make(map[trace.ProcID]shiftIndex, len(logs))}
	for p, l := range logs {
		c.shifts[p] = l.index()
	}
	return c, nil
}

// Cursor is a caller's place in a Corrector's shift indexes: the index of
// the process it last mapped an event of, and the rank that event's start
// search ended at. A process's events arrive in (or near) start order, so
// the next search resumes a few markers from there instead of from scratch.
// The zero value is valid, and a cursor moved to another process or
// Corrector starts over; each goroutine mapping events holds its own. Where
// it resumes from is only a cost: a rank is a function of the time alone.
type Cursor struct {
	c    *Corrector
	proc trace.ProcID
	ix   shiftIndex
	at   int
}

// MapEvent applies the correction to one event in place: overhead markers
// are dropped (false), every other event's timestamps shift left by the
// cumulative calibrated overhead that preceded them. The math is identical
// to Correct's, including the end-before-start clamp; cur only says where
// the searches start.
func (c *Corrector) MapEvent(e *trace.Event, cur *Cursor) bool {
	if e.Kind == trace.KindOverhead {
		return false
	}
	if cur.c != c || cur.proc != e.Proc {
		*cur = Cursor{c: c, proc: e.Proc, ix: c.shifts[e.Proc]}
	}
	ix := &cur.ix
	if len(ix.times) == 0 {
		return true
	}
	// End ≥ Start, so the end search resumes where the start search ended.
	at := ix.rankNear(e.Start, cur.at)
	cur.at = at
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
// time t": in O(log n) from scratch, in O(log d) resumed from a rank d
// markers away (rankNear, rankFrom).
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

// markerLog gathers one process's calibrated markers, in arrival order, for
// an index that cannot be sized until the last has arrived. A marker is two
// 32-bit words — its time as the delta from the previous marker's, and its
// cost — kept together in one block of a block list, so nothing it holds is
// ever copied and a marker takes 8 bytes here against the 16 it takes in the
// index. A marker that does not fit — one earlier than the marker before it
// or more than 4.29 s later, or one that costs that long — is logged whole:
// markerEscape, then its time and its cost in two words each.
type markerLog struct {
	words    recycle.BlockList[uint32]
	n        int
	last     vclock.Time // the time of the marker added last
	unsorted bool        // some marker came before the one added ahead of it
}

// markerEscape opens a marker logged whole.
const markerEscape = math.MaxUint32

// newMarkerLog returns an empty log: 32 markers fill its first block, so that
// a process with few costs little, and each later block doubles to 16 Ki words.
func newMarkerLog() *markerLog {
	return &markerLog{words: recycle.BlockList[uint32]{Min: 64, Max: 16 << 10}}
}

// add logs one marker.
func (l *markerLog) add(t vclock.Time, d vclock.Duration) {
	if delta := uint64(t - l.last); delta < markerEscape && uint64(d) <= math.MaxUint32 {
		l.words.AppendRun(uint32(delta), uint32(d))
	} else {
		l.words.AppendRun(markerEscape, uint32(uint64(t)>>32), uint32(t), uint32(uint64(d)>>32), uint32(d))
	}
	l.unsorted = l.unsorted || (l.n > 0 && t < l.last)
	l.last = t
	l.n++
}

// index folds the logged markers into their shift index, allocated at its
// exact length. Markers that arrived in time order — as a process's events
// in start order always do and markers in storage order all but always do —
// fold in place; otherwise resorted rebuilds the index.
func (l *markerLog) index() shiftIndex {
	ix := shiftIndex{
		times:  make([]vclock.Time, l.n),
		prefix: make([]vclock.Duration, l.n+1),
	}
	var t vclock.Time
	i := 0
	for _, b := range l.words.Blocks() {
		for j := 0; j < len(b); i++ {
			var d vclock.Duration
			if b[j] != markerEscape {
				t += vclock.Time(b[j])
				d = vclock.Duration(b[j+1])
				j += 2
			} else {
				t = vclock.Time(uint64(b[j+1])<<32 | uint64(b[j+2]))
				d = vclock.Duration(uint64(b[j+3])<<32 | uint64(b[j+4]))
				j += 5
			}
			ix.times[i] = t
			ix.prefix[i+1] = ix.prefix[i] + d
		}
	}
	if l.unsorted {
		return ix.resorted()
	}
	return ix
}

// resorted is the index of ix's markers, whatever their order.
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
// [lo, hi]: a binary search, written out so that no closure is called per
// probe.
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

// rankNear is rank for a t whose rank is close to hint ∈ [0, len(times)], on
// either side of it: forward it is rankFrom, backward it gallops — probing
// hint-1, hint-3, hint-7, … — to bracket the answer, then searches the
// bracket.
func (ix shiftIndex) rankNear(t vclock.Time, hint int) int {
	if hint < len(ix.times) && ix.times[hint] < t {
		return ix.rankFrom(t, hint+1)
	}
	lo, hi := 0, hint
	for step := 1; lo < hi; step *= 2 {
		probe := max(hi-step, lo)
		if ix.times[probe] < t {
			lo = probe + 1
			break
		}
		hi = probe
	}
	return ix.rank(t, lo, hi)
}
