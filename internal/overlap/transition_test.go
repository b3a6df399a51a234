package overlap

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// This file holds transition scoping to the reference sweep: every marker
// inside a window counts against the innermost operation that covers its
// instant — the state after every boundary at or before it, closes before
// opens — or against UntrackedOp.

// The event program's vocabulary: an event is a kind, an index into its
// kind's table, a start and a width, each in one byte.
var (
	progKinds  = []trace.EventKind{trace.KindCPU, trace.KindGPU, trace.KindOp, trace.KindTransition}
	progCPU    = []trace.Category{trace.CatPython, trace.CatSimulator, trace.CatBackend, trace.CatCUDA}
	progOps    = []string{"alpha", "beta", "gamma", UntrackedOp}
	progLabels = []string{trace.TransPythonToBackend, trace.TransPythonToSimulator, trace.TransBackendToCUDA}
)

// progTime maps a window byte to an instant: 0 and 255 are the open ends.
func progTime(b byte) vclock.Time {
	switch b {
	case 0:
		return vclock.MinTime
	case 255:
		return vclock.MaxTime
	}
	return vclock.Time(b)
}

// decodeProgram turns fuzz bytes into a small event program and the window
// bounds lo <= cut <= hi. The header is four bytes — flags (bit 0: sort the
// events by start, as a trace delivers them; bit 1: reverse them; bit 2:
// non-kernel device events carry the out-of-domain CatNone, not memcpy),
// then lo, cut and hi in any order — and every further three bytes are one
// event: selector (kind in the low two bits, table index above), start,
// width. Equal and zero-width times are common by construction; transitions
// are points whatever their width byte says. A program has one non-kernel
// device category: where two distinct ones overlap, the reference picks in
// map iteration order, and the sweep documents its own deterministic pick.
func decodeProgram(data []byte) (events []trace.Event, lo, cut, hi vclock.Time) {
	var head [4]byte
	copy(head[:], data)
	bounds := []vclock.Time{progTime(head[1]), progTime(head[2]), progTime(head[3])}
	slices.Sort(bounds)
	lo, cut, hi = bounds[0], bounds[1], bounds[2]
	nonKernel := trace.CatGPUMemcpy
	if head[0]&4 != 0 {
		nonKernel = trace.CatNone
	}
	for body := data[min(len(data), 4):]; len(body) >= 3; body = body[3:] {
		sel, start, width := body[0], vclock.Time(body[1]), vclock.Time(body[2])
		e := trace.Event{Kind: progKinds[sel&3], Start: start, End: start + width}
		idx := int(sel >> 2)
		switch e.Kind {
		case trace.KindCPU:
			e.Cat, e.Name = progCPU[idx%len(progCPU)], "cpu"
		case trace.KindGPU:
			e.Cat, e.Name = trace.CatGPUKernel, "k"
			if idx%2 == 1 {
				e.Cat = nonKernel
			}
		case trace.KindOp:
			e.Name = progOps[idx%len(progOps)]
		case trace.KindTransition:
			e.Name, e.End = progLabels[idx%len(progLabels)], start
		}
		events = append(events, e)
	}
	if head[0]&1 != 0 {
		slices.SortStableFunc(events, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
	}
	if head[0]&2 != 0 {
		slices.Reverse(events)
	}
	return events, lo, cut, hi
}

// encodeProgram is decodeProgram's inverse for events drawn from the
// program's vocabulary with times in [0, 255], kept in the given order.
func encodeProgram(t testing.TB, events []trace.Event, lo, cut, hi byte) []byte {
	t.Helper()
	data := []byte{0, lo, cut, hi}
	for _, e := range events {
		kind := slices.Index(progKinds, e.Kind)
		var idx int
		switch e.Kind {
		case trace.KindCPU:
			idx = slices.Index(progCPU, e.Cat)
		case trace.KindGPU:
			idx = slices.Index([]trace.Category{trace.CatGPUKernel, trace.CatGPUMemcpy}, e.Cat)
		case trace.KindOp:
			idx = slices.Index(progOps, e.Name)
		case trace.KindTransition:
			idx = slices.Index(progLabels, e.Name)
		}
		if kind < 0 || idx < 0 || idx > 63 || e.Start < 0 || e.Start > 255 || e.End-e.Start > 255 {
			t.Fatalf("%+v is outside the event program's vocabulary", e)
		}
		data = append(data, byte(idx<<2|kind), byte(e.Start), byte(e.End-e.Start))
	}
	return data
}

// scopingCases are the edge cases of transition scoping, every time inside
// [0, 255] so that they double as the fuzz target's seed corpus.
var scopingCases = []struct {
	name   string
	events []trace.Event
}{
	{"marker at an op's open and close instants", []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 5, End: 60, Name: "cpu"},
		{Kind: trace.KindOp, Start: 10, End: 20, Name: "alpha"},
		{Kind: trace.KindOp, Start: 20, End: 30, Name: "beta"},
		{Kind: trace.KindTransition, Start: 10, End: 10, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 20, End: 20, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 30, End: 30, Name: trace.TransPythonToSimulator},
		{Kind: trace.KindTransition, Start: 19, End: 19, Name: trace.TransPythonToSimulator},
	}},
	{"zero-width ops", []trace.Event{
		{Kind: trace.KindOp, Start: 10, End: 40, Name: "alpha"},
		{Kind: trace.KindOp, Start: 15, End: 15, Name: "beta"},
		{Kind: trace.KindOp, Start: 50, End: 50, Name: "gamma"},
		{Kind: trace.KindTransition, Start: 15, End: 15, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 50, End: 50, Name: trace.TransPythonToBackend},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: 12, End: 52, Name: "k"},
	}},
	{"nested ops opening at one instant", []trace.Event{
		{Kind: trace.KindOp, Start: 8, End: 40, Name: "alpha"},
		{Kind: trace.KindOp, Start: 8, End: 30, Name: "beta"},
		{Kind: trace.KindOp, Start: 8, End: 30, Name: "gamma"},
		{Kind: trace.KindOp, Start: 8, End: 40, Name: "beta"},
		{Kind: trace.KindCPU, Cat: trace.CatBackend, Start: 8, End: 40, Name: "cpu"},
		{Kind: trace.KindTransition, Start: 8, End: 8, Name: trace.TransBackendToCUDA},
		{Kind: trace.KindTransition, Start: 29, End: 29, Name: trace.TransBackendToCUDA},
		{Kind: trace.KindTransition, Start: 30, End: 30, Name: trace.TransBackendToCUDA},
		{Kind: trace.KindTransition, Start: 39, End: 39, Name: trace.TransPythonToBackend},
	}},
	{"an op named UntrackedOp", []trace.Event{
		{Kind: trace.KindOp, Start: 0, End: 30, Name: "alpha"},
		{Kind: trace.KindOp, Start: 5, End: 15, Name: UntrackedOp},
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 40, Name: "cpu"},
		{Kind: trace.KindTransition, Start: 10, End: 10, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 20, End: 20, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 35, End: 35, Name: trace.TransPythonToBackend},
	}},
	{"markers before the first boundary and after the last", []trace.Event{
		{Kind: trace.KindTransition, Start: 1, End: 1, Name: trace.TransPythonToSimulator},
		{Kind: trace.KindCPU, Cat: trace.CatSimulator, Start: 20, End: 80, Name: "cpu"},
		{Kind: trace.KindOp, Start: 20, End: 80, Name: "gamma"},
		{Kind: trace.KindTransition, Start: 80, End: 80, Name: trace.TransPythonToSimulator},
		{Kind: trace.KindTransition, Start: 200, End: 200, Name: trace.TransPythonToSimulator},
		{Kind: trace.KindTransition, Start: 255, End: 255, Name: trace.TransBackendToCUDA},
	}},
	{"markers but no intervals", []trace.Event{
		{Kind: trace.KindTransition, Start: 3, End: 3, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 3, End: 3, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 90, End: 90, Name: trace.TransBackendToCUDA},
		{Kind: trace.KindOp, Start: 40, End: 40, Name: "alpha"},
	}},
	{"markers outside the window", []trace.Event{
		{Kind: trace.KindOp, Start: 0, End: 250, Name: "alpha"},
		{Kind: trace.KindTransition, Start: 9, End: 9, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 10, End: 10, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 99, End: 99, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 100, End: 100, Name: trace.TransPythonToBackend},
	}},
	{"non-LIFO op closes", []trace.Event{
		{Kind: trace.KindOp, Start: 0, End: 20, Name: "alpha"},
		{Kind: trace.KindOp, Start: 10, End: 30, Name: "beta"},
		{Kind: trace.KindOp, Start: 12, End: 25, Name: "gamma"},
		{Kind: trace.KindCPU, Cat: trace.CatCUDA, Start: 0, End: 30, Name: "cpu"},
		{Kind: trace.KindTransition, Start: 15, End: 15, Name: trace.TransBackendToCUDA},
		{Kind: trace.KindTransition, Start: 20, End: 20, Name: trace.TransBackendToCUDA},
		{Kind: trace.KindTransition, Start: 25, End: 25, Name: trace.TransBackendToCUDA},
		{Kind: trace.KindTransition, Start: 29, End: 29, Name: trace.TransBackendToCUDA},
		{Kind: trace.KindTransition, Start: 30, End: 30, Name: trace.TransBackendToCUDA},
	}},
}

// checkScoping compares the windowed sweep with the reference on every
// window of the partition cuts, on the events as given, reversed and
// shuffled, through a warm Sweeper.
func checkScoping(t *testing.T, sw *Sweeper, rng *rand.Rand, name string, events []trace.Event, cuts []vclock.Time) {
	t.Helper()
	reversed := slices.Clone(events)
	slices.Reverse(reversed)
	shuffled := slices.Clone(events)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var got Result
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		want := refComputeWindow(events, lo, hi)
		for order, evs := range [][]trace.Event{events, reversed, shuffled} {
			sw.ComputeWindowInto(&got, evs, lo, hi)
			if !resultsEqual(&got, want) {
				t.Fatalf("%s, window [%d, %d), order %d: transitions %v, want %v; by key %v, want %v",
					name, lo, hi, order, got.Transitions, want.Transitions, got.ByKey, want.ByKey)
			}
		}
	}
}

// randomCuts partitions the timeline into one to eight windows around
// [0, horizon).
func randomCuts(rng *rand.Rand, horizon vclock.Time) []vclock.Time {
	cuts := []vclock.Time{vclock.MinTime, vclock.MaxTime}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		cuts = append(cuts, vclock.Time(rng.Int63n(int64(horizon)+20)-10))
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// TestTransitionScopingMatchesReference pins transition scoping to the
// reference sweep on the edge cases above and on random adversarial traces
// with markers on exact boundaries, over the whole timeline, fixed windows
// that cut through markers and random window partitions.
func TestTransitionScopingMatchesReference(t *testing.T) {
	sw := NewSweeper()
	rng := rand.New(rand.NewSource(35))
	fixed := []vclock.Time{vclock.MinTime, 10, 20, 30, 100, vclock.MaxTime}
	for _, c := range scopingCases {
		checkScoping(t, sw, rng, c.name, c.events, []vclock.Time{vclock.MinTime, vclock.MaxTime})
		checkScoping(t, sw, rng, c.name, c.events, fixed)
		for i := 0; i < 20; i++ {
			checkScoping(t, sw, rng, c.name, c.events, randomCuts(rng, 120))
		}
	}
	for i := 0; i < 300; i++ {
		const horizon = vclock.Time(160)
		events := genAdversarialEvents(rng, horizon)
		// Put markers on the boundaries of the operations.
		for _, e := range slices.Clone(events) {
			if e.Kind == trace.KindOp {
				for _, at := range []vclock.Time{e.Start, e.End} {
					events = append(events, trace.Event{Kind: trace.KindTransition, Start: at, End: at, Name: progLabels[rng.Intn(len(progLabels))]})
				}
			}
		}
		slices.SortStableFunc(events, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
		checkScoping(t, sw, rng, "random", events, randomCuts(rng, horizon))
	}
}

// FuzzSweepMatchesReference runs an event program through the windowed
// sweep on both sides of a cut: each window must equal the reference
// sweep's, and nothing may panic.
func FuzzSweepMatchesReference(f *testing.F) {
	for _, c := range scopingCases {
		for _, w := range [][3]byte{{0, 20, 255}, {10, 15, 100}, {0, 0, 255}, {9, 30, 31}} {
			data := encodeProgram(f, c.events, w[0], w[1], w[2])
			f.Add(data)
			for flags := byte(1); flags < 8; flags++ {
				data = slices.Clone(data)
				data[0] = flags
				f.Add(data)
			}
		}
	}
	f.Add([]byte{})
	sw := NewSweeper()
	f.Fuzz(func(t *testing.T, data []byte) {
		events, lo, cut, hi := decodeProgram(data)
		var got Result
		for _, w := range [][2]vclock.Time{{lo, cut}, {cut, hi}} {
			want := refComputeWindow(events, w[0], w[1])
			sw.ComputeWindowInto(&got, events, w[0], w[1])
			if !resultsEqual(&got, want) {
				t.Fatalf("window [%d, %d) of %+v: got %+v, want %+v", w[0], w[1], events, got, *want)
			}
		}
	})
}

// TestTransitionScopingManyLabels: a window with more distinct labels than
// the scan interns and more (operation, label) cells than the dense grid
// holds — only an unvalidated trace carries such — is still scoped exactly.
func TestTransitionScopingManyLabels(t *testing.T) {
	sw := NewSweeper()
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{12, 300} {
		var events []trace.Event
		for i := 0; i < n; i++ {
			at := vclock.Time(4 * i)
			events = append(events,
				trace.Event{Kind: trace.KindOp, Start: at, End: at + 3, Name: fmt.Sprintf("op%d", i)},
				trace.Event{Kind: trace.KindTransition, Start: at + 1, End: at + 1, Name: fmt.Sprintf("label%d", i)},
				trace.Event{Kind: trace.KindTransition, Start: at + 3, End: at + 3, Name: fmt.Sprintf("label%d", n-1-i)},
			)
		}
		if cells := (n + 1) * n; n > 100 && cells <= maxTransitionCells {
			t.Fatalf("%d cells fit the dense grid", cells)
		}
		checkScoping(t, sw, rng, fmt.Sprintf("%d labels", n), events, []vclock.Time{vclock.MinTime, 100, vclock.MaxTime})
	}
}
