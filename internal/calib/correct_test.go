package calib

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// randomShifts is a Corrector over random shift indexes: process 0's is
// empty, process 1 has none, process 2 has a single marker and processes 3
// and 4 have many, their times drawn from a range narrow enough that equal
// marker times are common.
func randomShifts(rng *rand.Rand) *Corrector {
	c := &Corrector{shifts: map[trace.ProcID]shiftIndex{0: {}}}
	for p, n := range []int{2: 1, 3: 40, 4: 200} {
		if n == 0 {
			continue
		}
		ms := make([]marker, n)
		for i := range ms {
			ms[i] = marker{vclock.Time(rng.Intn(3 * n)), vclock.Duration(1 + rng.Intn(5))}
		}
		c.shifts[trace.ProcID(p)] = buildShiftFromMarkers(ms)
	}
	return c
}

// mapFromScratch is MapEvent without a cursor: both searches from scratch.
func mapFromScratch(c *Corrector, e *trace.Event) bool {
	if e.Kind == trace.KindOverhead {
		return false
	}
	ix := c.shifts[e.Proc]
	if len(ix.times) == 0 {
		return true
	}
	e.Start = e.Start.Add(-ix.before(e.Start))
	e.End = e.End.Add(-ix.before(e.End))
	if e.End < e.Start {
		e.End = e.Start
	}
	return true
}

// TestCursorMatchesSearchFromScratch is the property the cursor rests on:
// where a search resumes is only a cost. Over random shift indexes, events
// mapped through one reused cursor — in ascending, descending, shuffled and
// near-sorted start order, one process after another or switching process
// from event to event — are mapped exactly as by searches from scratch, and
// so is each event from a cursor left at rank 0 and at len(times). The
// cursor also outlives each round's Corrector.
func TestCursorMatchesSearchFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var cur Cursor
	for round := 0; round < 20; round++ {
		c := randomShifts(rng)
		events := make([]trace.Event, 500)
		for i := range events {
			start := vclock.Time(rng.Intn(650) - 20)
			events[i] = trace.Event{Proc: trace.ProcID(rng.Intn(5)), Kind: trace.KindCPU, Start: start, End: start + vclock.Time(rng.Intn(60))}
			if rng.Intn(10) == 0 {
				events[i].Kind, events[i].End = trace.KindOverhead, start
			}
		}
		byStart := func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) }
		byProc := func(a, b trace.Event) int { return cmp.Compare(a.Proc, b.Proc) }
		orders := []struct {
			name  string
			order func([]trace.Event)
		}{
			{"ascending", func(es []trace.Event) { slices.SortStableFunc(es, byStart) }},
			{"descending", func(es []trace.Event) { slices.SortStableFunc(es, byStart); slices.Reverse(es) }},
			{"shuffled", func(es []trace.Event) { rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] }) }},
			{"near-sorted", func(es []trace.Event) {
				slices.SortStableFunc(es, byStart)
				for i := range es {
					j := min(i+rng.Intn(4), len(es)-1)
					es[i], es[j] = es[j], es[i]
				}
			}},
		}
		for _, o := range orders {
			for _, grouped := range []bool{false, true} {
				es := slices.Clone(events)
				o.order(es)
				if grouped {
					slices.SortStableFunc(es, byProc)
				}
				for _, e := range es {
					got, want := e, e
					gk, wk := c.MapEvent(&got, &cur), mapFromScratch(c, &want)
					if gk != wk || got != want {
						t.Fatalf("round %d %s (grouped %v): %+v mapped to %+v (kept %v), want %+v (kept %v)",
							round, o.name, grouped, e, got, gk, want, wk)
					}
					ix := c.shifts[e.Proc]
					for _, hint := range []int{0, len(ix.times)} {
						got := e
						c.MapEvent(&got, &Cursor{c: c, proc: e.Proc, ix: ix, at: hint})
						if got != want {
							t.Fatalf("round %d: %+v mapped from rank %d to %+v, want %+v", round, e, hint, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMarkerLogFoldsEveryOrder: a markerLog's index is the sorted fold of
// the markers added to it, whatever their order, their count against the
// block sizes, and however far apart their times lie — MinTime next to
// MaxTime included, whose delta wraps.
func TestMarkerLogFoldsEveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	extremes := []vclock.Time{vclock.MinTime, vclock.MaxTime, -1, 0, 1}
	for _, n := range []int{0, 1, 2, 50, 5000} {
		for _, sorted := range []bool{true, false} {
			ms := make([]marker, n)
			for i := range ms {
				ms[i] = marker{vclock.Time(rng.Int63n(1 << 40)), vclock.Duration(1 + rng.Int63n(1<<33))}
				if rng.Intn(50) == 0 {
					ms[i].t = extremes[rng.Intn(len(extremes))]
				}
			}
			if sorted {
				slices.SortStableFunc(ms, func(a, b marker) int { return cmp.Compare(a.t, b.t) })
			}
			l := newMarkerLog()
			for _, m := range ms {
				l.add(m.t, m.d)
			}
			got, want := l.index(), buildShiftFromMarkers(slices.Clone(ms))
			if !slices.Equal(got.times, want.times) || !slices.Equal(got.prefix, want.prefix) {
				t.Fatalf("n %d sorted %v: the log folds to %v / %v, want %v / %v", n, sorted, got.times, got.prefix, want.times, want.prefix)
			}
			if len(got.times) != n || len(got.prefix) != n+1 || cap(got.times) != n || cap(got.prefix) != n+1 {
				t.Fatalf("n %d sorted %v: index of len %d/%d, cap %d/%d; want exactly %d/%d", n, sorted, len(got.times), len(got.prefix), cap(got.times), cap(got.prefix), n, n+1)
			}
		}
	}
}
