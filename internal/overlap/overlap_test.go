package overlap

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/vclock"
)

func ms(f float64) vclock.Time { return vclock.Time(f * float64(vclock.Millisecond)) }

func msd(f float64) vclock.Duration { return vclock.Duration(f * float64(vclock.Millisecond)) }

// TestFigure3WorkedExample reconstructs the paper's Figure 3 exactly:
// a 3.74 ms trace with an mcts_tree_search operation containing two
// expand_leaf operations, two GPU kernels overlapping the latter, and the
// published region sums:
//
//	CPU, mcts_tree_search       = (a) + (e)             = 1.25 ms
//	CPU, expand_leaf            = (b) + (d) + (f) + (h) = 0.79 ms
//	GPU, CPU, expand_leaf       = (c) + (g)             = 1.70 ms
func TestFigure3WorkedExample(t *testing.T) {
	events := []trace.Event{
		// Root CPU activity (Python) across the whole window.
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: ms(0), End: ms(3.74), Name: "python"},
		// Operations.
		{Kind: trace.KindOp, Start: ms(0), End: ms(3.74), Name: "mcts_tree_search"},
		{Kind: trace.KindOp, Start: ms(0.75), End: ms(2.10), Name: "expand_leaf"},
		{Kind: trace.KindOp, Start: ms(2.60), End: ms(3.74), Name: "expand_leaf"},
		// GPU kernels: regions (c) and (g).
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: ms(1.05), End: ms(1.90), Name: "expand"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: ms(2.75), End: ms(3.60), Name: "expand"},
	}
	res := Compute(events)

	if got, want := res.Dur("mcts_tree_search", ResCPU, trace.CatPython), msd(1.25); got != want {
		t.Errorf("CPU mcts_tree_search = %v, want %v", got, want)
	}
	if got, want := res.Dur("expand_leaf", ResCPU, trace.CatPython), msd(0.79); got != want {
		t.Errorf("CPU expand_leaf = %v, want %v", got, want)
	}
	if got, want := res.Dur("expand_leaf", ResCPU|ResGPU, trace.CatPython), msd(1.70); got != want {
		t.Errorf("CPU+GPU expand_leaf = %v, want %v", got, want)
	}
	if got, want := res.Total(), msd(3.74); got != want {
		t.Errorf("total = %v, want %v", got, want)
	}
}

func TestInnermostCPUCategoryWins(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 100, Name: "python"},
		{Kind: trace.KindCPU, Cat: trace.CatBackend, Start: 20, End: 80, Name: "run"},
		{Kind: trace.KindCPU, Cat: trace.CatCUDA, Start: 40, End: 50, Name: "cudaLaunchKernel"},
	}
	res := Compute(events)
	if got := res.Dur(UntrackedOp, ResCPU, trace.CatPython); got != 40 {
		t.Errorf("Python time = %v, want 40", got)
	}
	if got := res.Dur(UntrackedOp, ResCPU, trace.CatBackend); got != 50 {
		t.Errorf("Backend time = %v, want 50", got)
	}
	if got := res.Dur(UntrackedOp, ResCPU, trace.CatCUDA); got != 10 {
		t.Errorf("CUDA time = %v, want 10", got)
	}
}

func TestGPUOnlyRegions(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 50, Name: "python"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: 40, End: 90, Name: "k"},
	}
	res := Compute(events)
	if got := res.Dur(UntrackedOp, ResCPU, trace.CatPython); got != 40 {
		t.Errorf("CPU-only = %v, want 40", got)
	}
	if got := res.Dur(UntrackedOp, ResCPU|ResGPU, trace.CatPython); got != 10 {
		t.Errorf("CPU+GPU = %v, want 10", got)
	}
	if got := res.Dur(UntrackedOp, ResGPU, trace.CatGPUKernel); got != 40 {
		t.Errorf("GPU-only = %v, want 40", got)
	}
}

func TestKernelPrecedenceOverMemcpy(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindGPU, Cat: trace.CatGPUMemcpy, Start: 0, End: 100, Name: "m"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: 40, End: 60, Name: "k"},
	}
	res := Compute(events)
	if got := res.Dur(UntrackedOp, ResGPU, trace.CatGPUKernel); got != 20 {
		t.Errorf("kernel-labelled GPU time = %v, want 20", got)
	}
	if got := res.Dur(UntrackedOp, ResGPU, trace.CatGPUMemcpy); got != 80 {
		t.Errorf("memcpy-labelled GPU time = %v, want 80", got)
	}
}

func TestIdleGapsAttributedNowhere(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 10, Name: "a"},
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 50, End: 60, Name: "b"},
	}
	res := Compute(events)
	if got := res.Total(); got != 20 {
		t.Errorf("total = %v, want 20 (idle gap excluded)", got)
	}
}

func TestZeroWidthEventsIgnored(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 5, End: 5, Name: "zero"},
	}
	res := Compute(events)
	if got := res.Total(); got != 0 {
		t.Errorf("total = %v, want 0", got)
	}
}

func TestTransitionScoping(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindOp, Start: 0, End: 100, Name: "inference"},
		{Kind: trace.KindOp, Start: 100, End: 200, Name: "simulation"},
		{Kind: trace.KindTransition, Start: 10, End: 10, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 20, End: 20, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 150, End: 150, Name: trace.TransPythonToSimulator},
		{Kind: trace.KindTransition, Start: 250, End: 250, Name: trace.TransPythonToSimulator},
	}
	res := Compute(events)
	if got := res.TransitionCount("inference", trace.TransPythonToBackend); got != 2 {
		t.Errorf("inference backend transitions = %d, want 2", got)
	}
	if got := res.TransitionCount("simulation", trace.TransPythonToSimulator); got != 1 {
		t.Errorf("simulation simulator transitions = %d, want 1", got)
	}
	if got := res.TransitionCount(UntrackedOp, trace.TransPythonToSimulator); got != 1 {
		t.Errorf("untracked simulator transitions = %d, want 1", got)
	}
	if got := res.TotalTransitions(trace.TransPythonToSimulator); got != 2 {
		t.Errorf("total simulator transitions = %d, want 2", got)
	}
}

func TestNestedOpsInnermostWins(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 100, Name: "python"},
		{Kind: trace.KindOp, Start: 0, End: 100, Name: "outer"},
		{Kind: trace.KindOp, Start: 30, End: 70, Name: "inner"},
	}
	res := Compute(events)
	if got := res.Dur("outer", ResCPU, trace.CatPython); got != 60 {
		t.Errorf("outer = %v, want 60", got)
	}
	if got := res.Dur("inner", ResCPU, trace.CatPython); got != 40 {
		t.Errorf("inner = %v, want 40", got)
	}
}

func TestResultHelpers(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 100, Name: "python"},
		{Kind: trace.KindCPU, Cat: trace.CatBackend, Start: 10, End: 30, Name: "run"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: 20, End: 40, Name: "k"},
		{Kind: trace.KindOp, Start: 0, End: 100, Name: "step"},
	}
	res := Compute(events)
	if got := res.CPUTime("step"); got != 100 {
		t.Errorf("CPUTime = %v, want 100", got)
	}
	if got := res.GPUTime("step"); got != 20 {
		t.Errorf("GPUTime = %v, want 20", got)
	}
	if got := res.CategoryCPUTime("step", trace.CatBackend); got != 20 {
		t.Errorf("CategoryCPUTime(backend) = %v, want 20", got)
	}
	if got := res.OpTotal("step"); got != 100 {
		t.Errorf("OpTotal = %v, want 100", got)
	}
	names := res.OpNames()
	if len(names) != 1 || names[0] != "step" {
		t.Errorf("OpNames = %v", names)
	}
	if got := res.TotalGPUTime(); got != 20 {
		t.Errorf("TotalGPUTime = %v, want 20", got)
	}
	if got := res.TotalCategoryCPUTime(trace.CatPython); got != 80 {
		t.Errorf("TotalCategoryCPUTime(python) = %v, want 80", got)
	}
}

// referenceCompute is a brute-force re-implementation of the sweep: it
// evaluates the attribution at every unit timestep, picking innermost
// events with the same innerCPU/innerOp comparators the sweep uses so that
// exact ties resolve identically. Used as the oracle in the property tests.
func referenceCompute(events []trace.Event, horizon vclock.Time) map[Key]vclock.Duration {
	out := map[Key]vclock.Duration{}
	for tm := vclock.Time(0); tm < horizon; tm++ {
		var cpu, gpuEv, op *trace.Event
		for i := range events {
			e := &events[i]
			if e.Start > tm || tm >= e.End {
				continue
			}
			switch e.Kind {
			case trace.KindCPU:
				if cpu == nil || innerCPU(*e, *cpu) {
					cpu = e
				}
			case trace.KindGPU:
				if gpuEv == nil || (e.Cat == trace.CatGPUKernel && gpuEv.Cat != trace.CatGPUKernel) {
					gpuEv = e
				}
			case trace.KindOp:
				if op == nil || innerOp(*e, *op) {
					op = e
				}
			}
		}
		if cpu == nil && gpuEv == nil {
			continue
		}
		k := Key{Op: UntrackedOp}
		if op != nil {
			k.Op = op.Name
		}
		if cpu != nil {
			k.Res |= ResCPU
			k.Cat = cpu.Cat
		}
		if gpuEv != nil {
			k.Res |= ResGPU
			if cpu == nil {
				k.Cat = gpuEv.Cat
			}
		}
		out[k]++
	}
	return out
}

// genNestedEvents builds a random but structurally valid event set:
// properly nested CPU events, properly nested ops, and arbitrary GPU
// intervals, all within [0, horizon).
func genNestedEvents(rng *rand.Rand, horizon vclock.Time) []trace.Event {
	var events []trace.Event
	// Nested CPU stack: python root, then random backend/sim segments
	// with optional CUDA children.
	events = append(events, trace.Event{
		Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: horizon, Name: "python",
	})
	cursor := vclock.Time(rng.Int63n(5))
	for cursor < horizon-4 {
		segLen := vclock.Duration(2 + rng.Int63n(20))
		end := cursor.Add(segLen)
		if end > horizon {
			end = horizon
		}
		cat := trace.CatBackend
		if rng.Intn(2) == 0 {
			cat = trace.CatSimulator
		}
		events = append(events, trace.Event{
			Kind: trace.KindCPU, Cat: cat, Start: cursor, End: end, Name: "native",
		})
		if cat == trace.CatBackend && end.Sub(cursor) > 4 {
			innerStart := cursor.Add(1)
			innerEnd := end.Add(-1)
			events = append(events, trace.Event{
				Kind: trace.KindCPU, Cat: trace.CatCUDA,
				Start: innerStart, End: innerEnd, Name: "api",
			})
		}
		cursor = end.Add(vclock.Duration(rng.Int63n(8)))
	}
	// GPU intervals: arbitrary, may overlap everything.
	for i := 0; i < rng.Intn(6); i++ {
		s := vclock.Time(rng.Int63n(int64(horizon)))
		e := s.Add(vclock.Duration(1 + rng.Int63n(30)))
		if e > horizon {
			e = horizon
		}
		cat := trace.CatGPUKernel
		if rng.Intn(3) == 0 {
			cat = trace.CatGPUMemcpy
		}
		events = append(events, trace.Event{Kind: trace.KindGPU, Cat: cat, Start: s, End: e, Name: "k"})
	}
	// Nested ops: two levels.
	opStart := vclock.Time(rng.Int63n(int64(horizon) / 2))
	opEnd := opStart.Add(vclock.Duration(rng.Int63n(int64(horizon)-int64(opStart)))) + 1
	if opEnd > horizon {
		opEnd = horizon
	}
	events = append(events, trace.Event{Kind: trace.KindOp, Start: opStart, End: opEnd, Name: "outer"})
	if opEnd.Sub(opStart) > 6 {
		events = append(events, trace.Event{
			Kind: trace.KindOp, Start: opStart.Add(2), End: opEnd.Add(-2), Name: "inner",
		})
	}
	return events
}

// genAdversarialEvents generates event sets with none of the structure the
// instrumentation guarantees: CPU events of arbitrary categories that
// partially overlap (so closes arrive in non-LIFO order), timestamps
// snapped to a coarse grid (so exact start/end ties are common), ops that
// share names and boundaries, zero-width intervals, GPU events everywhere,
// and transition markers landing on exact boundaries.
func genAdversarialEvents(rng *rand.Rand, horizon vclock.Time) []trace.Event {
	cpuCats := []trace.Category{trace.CatPython, trace.CatSimulator, trace.CatBackend, trace.CatCUDA}
	gpuCats := []trace.Category{trace.CatGPUKernel, trace.CatGPUMemcpy}
	opNames := []string{"alpha", "beta", "gamma", UntrackedOp}
	labels := []string{trace.TransPythonToBackend, trace.TransPythonToSimulator, trace.TransBackendToCUDA}
	grid := vclock.Time(1 + rng.Int63n(6))
	randT := func() vclock.Time {
		return vclock.Time(rng.Int63n(int64(horizon)/int64(grid))) * grid
	}
	n := 2 + rng.Intn(40)
	events := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		s, e := randT(), randT()
		if e < s {
			s, e = e, s
		}
		if rng.Intn(6) == 0 {
			e = s // zero-width
		}
		switch rng.Intn(6) {
		case 0, 1:
			events = append(events, trace.Event{
				Kind: trace.KindCPU, Cat: cpuCats[rng.Intn(len(cpuCats))],
				Start: s, End: e, Name: "cpu",
			})
		case 2:
			events = append(events, trace.Event{
				Kind: trace.KindGPU, Cat: gpuCats[rng.Intn(len(gpuCats))],
				Start: s, End: e, Name: "k",
			})
		case 3, 4:
			events = append(events, trace.Event{
				Kind: trace.KindOp, Start: s, End: e,
				Name: opNames[rng.Intn(len(opNames))],
			})
		default:
			events = append(events, trace.Event{
				Kind: trace.KindTransition, Start: s, End: s,
				Name: labels[rng.Intn(len(labels))],
			})
		}
	}
	return events
}

func resultsEqual(a, b *Result) bool {
	if len(a.ByKey) != len(b.ByKey) || len(a.Transitions) != len(b.Transitions) {
		return false
	}
	for k, d := range a.ByKey {
		if b.ByKey[k] != d {
			return false
		}
	}
	for k, n := range a.Transitions {
		if b.Transitions[k] != n {
			return false
		}
	}
	return a.SpanStart == b.SpanStart && a.SpanEnd == b.SpanEnd
}

// TestSweepMatchesReferenceSweepAdversarial: on adversarial traces (exact
// ties, non-LIFO close order, arbitrary overlap) the incremental sweep must
// be byte-identical — ByKey, Transitions, and Span — to the retained
// reference implementation.
func TestSweepMatchesReferenceSweepAdversarial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		events := genAdversarialEvents(rng, 200)
		return resultsEqual(Compute(events), refCompute(events))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refBoundsSorter is the whole-array boundary sort the merge replaced, kept
// verbatim as the oracle for the order nextBound delivers: by time, closes
// before opens, opens of one kind outermost-first.
type refBoundsSorter struct {
	bounds []boundary
	events []trace.Event
}

func (s *refBoundsSorter) Len() int      { return len(s.bounds) }
func (s *refBoundsSorter) Swap(i, j int) { s.bounds[i], s.bounds[j] = s.bounds[j], s.bounds[i] }

func (s *refBoundsSorter) Less(i, j int) bool {
	bi, bj := &s.bounds[i], &s.bounds[j]
	if bi.t != bj.t {
		return bi.t < bj.t
	}
	if bi.open != bj.open {
		return !bi.open
	}
	if !bi.open || bi.kind != bj.kind {
		return eventOrder(bi, bj)
	}
	switch bi.kind {
	case trace.KindCPU:
		if innerCPU(s.events[bi.ev], s.events[bj.ev]) {
			return false
		}
		if innerCPU(s.events[bj.ev], s.events[bi.ev]) {
			return true
		}
	case trace.KindOp:
		if innerOp(s.events[bi.ev], s.events[bj.ev]) {
			return false
		}
		if innerOp(s.events[bj.ev], s.events[bi.ev]) {
			return true
		}
	}
	return eventOrder(bi, bj)
}

// TestMergedBoundsMatchSortedBounds: the sequence nextBound delivers — opens
// verified or repaired in place, closes drawn from the heap — is exactly what
// sorting all 2n boundaries produced, on input in canonical order and
// shuffled, with exact start ties across and within kinds, non-LIFO closes,
// zero-width events and events outside the window.
func TestMergedBoundsMatchSortedBounds(t *testing.T) {
	sw := NewSweeper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const horizon = vclock.Time(200)
		events := genAdversarialEvents(rng, horizon)
		if rng.Intn(2) == 0 {
			(&trace.Trace{Events: events}).Sort()
		}
		lo, hi := vclock.MinTime, vclock.MaxTime
		if rng.Intn(2) == 0 {
			lo = vclock.Time(rng.Int63n(int64(horizon)))
			hi = lo.Add(vclock.Duration(1 + rng.Int63n(int64(horizon))))
		}
		sw.bounds = sw.bounds[:0]
		var want []boundary
		for i, e := range events {
			if e.Kind > trace.KindOp || e.End <= e.Start || e.End <= lo || e.Start >= hi {
				continue
			}
			sw.bounds = append(sw.bounds, boundary{e.Start, e.End, int32(i), 0, e.Kind, true})
			want = append(want,
				boundary{t: e.Start, ev: int32(i), kind: e.Kind, open: true},
				boundary{t: e.End, ev: int32(i), kind: e.Kind})
		}
		sort.Sort(&refBoundsSorter{want, events})
		sw.orderOpens(events)
		for _, w := range want {
			got := sw.nextBound()
			if got == nil || got.t != w.t || got.ev != w.ev || got.kind != w.kind || got.open != w.open {
				return false
			}
		}
		return sw.nextBound() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAdversarialBruteForceProperty checks the incremental sweep against
// the unit-timestep oracle on adversarial traces (the oracle cannot check
// Transitions or Span, but evaluates attribution from first principles).
func TestAdversarialBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const horizon = vclock.Time(160)
		events := genAdversarialEvents(rng, horizon)
		got := Compute(events).ByKey
		want := referenceCompute(events, horizon)
		if len(got) != len(want) {
			return false
		}
		for k, d := range want {
			if got[k] != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowPartitionProperty: for any partition of the timeline into 1–8
// windows, the per-window sweeps must (a) each match the reference sweep on
// that window and (b) sum to the whole-timeline result exactly — the
// property the sharded analysis engine relies on.
func TestWindowPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const horizon = vclock.Time(180)
		var events []trace.Event
		if rng.Intn(2) == 0 {
			events = genAdversarialEvents(rng, horizon)
		} else {
			events = genNestedEvents(rng, horizon)
		}
		want := Compute(events)

		// Random cut points partition (-inf, +inf).
		nCuts := rng.Intn(8)
		cuts := make([]vclock.Time, 0, nCuts+2)
		cuts = append(cuts, vclock.MinTime)
		for i := 0; i < nCuts; i++ {
			cuts = append(cuts, vclock.Time(rng.Int63n(int64(horizon)+20)-10))
		}
		cuts = append(cuts, vclock.MaxTime)
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

		sum := &Result{
			ByKey:       map[Key]vclock.Duration{},
			Transitions: map[TransitionKey]int{},
		}
		spanSet := false
		sw := NewSweeper()
		var part Result
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if lo == hi {
				continue
			}
			sw.ComputeWindowInto(&part, events, lo, hi)
			if !resultsEqual(&part, refComputeWindow(events, lo, hi)) {
				return false
			}
			for k, d := range part.ByKey {
				sum.ByKey[k] += d
			}
			for k, n := range part.Transitions {
				sum.Transitions[k] += n
			}
			if part.SpanStart == 0 && part.SpanEnd == 0 && len(part.ByKey) == 0 {
				continue // window saw no interval events
			}
			if !spanSet || part.SpanStart < sum.SpanStart {
				sum.SpanStart = part.SpanStart
			}
			if !spanSet || part.SpanEnd > sum.SpanEnd {
				sum.SpanEnd = part.SpanEnd
			}
			spanSet = true
		}
		return resultsEqual(sum, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestNonLIFOCloseOrder pins the adversarial case the innermost stacks must
// absorb: partially overlapping CPU events whose closes arrive in the
// opposite order from a call stack's.
func TestNonLIFOCloseOrder(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 60, Name: "a"},
		{Kind: trace.KindCPU, Cat: trace.CatBackend, Start: 10, End: 40, Name: "b"},
		// c starts inside b but outlives it — closes are non-LIFO.
		{Kind: trace.KindCPU, Cat: trace.CatSimulator, Start: 20, End: 90, Name: "c"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUMemcpy, Start: 30, End: 70, Name: "m"},
	}
	got := Compute(events)
	if !resultsEqual(got, refCompute(events)) {
		t.Fatalf("non-LIFO close order diverges from reference:\n%v\nvs\n%v", got.ByKey, refCompute(events).ByKey)
	}
	// c (started 20, latest start) is innermost from 20 onward — including
	// after b's non-LIFO close at 40 — so the whole GPU overlap [30,70)
	// lands on it.
	if d := got.Dur(UntrackedOp, ResCPU|ResGPU, trace.CatSimulator); d != 40 {
		t.Fatalf("simulator CPU+GPU time = %v, want 40 (c innermost over [30,70))", d)
	}
}

// TestGPUOutOfDomainCategory: the chunk decode path never validates
// events, so a KindGPU event can reach the sweep with a category outside
// {kernel, memcpy}. GPU-only intervals must label it with the event's own
// category, exactly like the reference sweep — not collapse it to memcpy.
func TestGPUOutOfDomainCategory(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindGPU, Cat: trace.CatNone, Start: 0, End: 40, Name: "weird"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: 10, End: 20, Name: "k"},
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 30, End: 35, Name: "py"},
	}
	got := Compute(events)
	if !resultsEqual(got, refCompute(events)) {
		t.Fatalf("out-of-domain GPU category diverges from reference:\n%v\nvs\n%v",
			got.ByKey, refCompute(events).ByKey)
	}
	if d := got.Dur(UntrackedOp, ResGPU, trace.CatNone); d != 25 {
		t.Fatalf("GPU-only CatNone time = %v, want 25 ([0,10)+[20,30)+[35,40))", d)
	}
	if d := got.Dur(UntrackedOp, ResGPU, trace.CatGPUKernel); d != 10 {
		t.Fatalf("kernel-labelled time = %v, want 10 (kernel precedence over [10,20))", d)
	}
}

// TestExactTieClassification pins exact-tie behavior: events sharing both
// endpoints resolve by the deterministic comparator chain, identically to
// the reference sweep.
func TestExactTieClassification(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatSimulator, Start: 0, End: 50, Name: "sim"},
		{Kind: trace.KindCPU, Cat: trace.CatBackend, Start: 0, End: 50, Name: "backend"},
		{Kind: trace.KindOp, Start: 0, End: 50, Name: "zz"},
		{Kind: trace.KindOp, Start: 0, End: 50, Name: "aa"},
	}
	got := Compute(events)
	if !resultsEqual(got, refCompute(events)) {
		t.Fatal("exact ties diverge from reference")
	}
	// Equal start and rank: higher Cat wins (CatBackend > CatSimulator is
	// false — CatSimulator=2 < CatBackend=3, so Backend wins); equal op
	// extents: lexicographically smaller name wins.
	if d := got.Dur("aa", ResCPU, trace.CatBackend); d != 50 {
		t.Fatalf("tie resolution: got %v for (aa, CPU, Backend), want 50; full=%v", d, got.ByKey)
	}
}

func TestSweepMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const horizon = vclock.Time(120)
		events := genNestedEvents(rng, horizon)
		got := Compute(events).ByKey
		want := referenceCompute(events, horizon)
		if len(got) != len(want) {
			return false
		}
		for k, d := range want {
			if got[k] != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderInvarianceProperty: Compute must be a pure function of the event
// *set* — shuffling the input slice never changes the result.
func TestOrderInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const horizon = vclock.Time(100)
		events := genNestedEvents(rng, horizon)
		want := Compute(events).ByKey
		shuffled := append([]trace.Event(nil), events...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := Compute(shuffled).ByKey
		if len(got) != len(want) {
			return false
		}
		for k, d := range want {
			if got[k] != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTotalConservation: attributed time must exactly equal the union of
// busy time (no double counting, nothing dropped).
func TestTotalConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const horizon = vclock.Time(150)
		events := genNestedEvents(rng, horizon)
		res := Compute(events)
		// Union of all CPU/GPU interval coverage, computed directly.
		covered := make([]bool, horizon)
		for _, e := range events {
			if e.Kind != trace.KindCPU && e.Kind != trace.KindGPU {
				continue
			}
			for tm := e.Start; tm < e.End && tm < horizon; tm++ {
				covered[tm] = true
			}
		}
		var union vclock.Duration
		for _, c := range covered {
			if c {
				union++
			}
		}
		return res.Total() == union
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowIgnoresEventsOutside pins what lets a closed window travel to
// the sweep in its whole buffer: events that lie wholly outside [lo, hi) —
// intervals ending at or before lo, intervals starting at or after hi,
// zero-width intervals, transitions and other point markers outside it,
// operations among them — may be added to a window's events anywhere
// without changing the windowed sweep's Result, on a Sweeper warmed by
// other windows as the pipeline's are.
func TestWindowIgnoresEventsOutside(t *testing.T) {
	sw := NewSweeper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const horizon = vclock.Time(180)
		var events []trace.Event
		if rng.Intn(2) == 0 {
			events = genAdversarialEvents(rng, horizon)
		} else {
			events = genNestedEvents(rng, horizon)
		}
		lo := vclock.Time(rng.Int63n(int64(horizon)+20) - 10)
		hi := lo + 1 + vclock.Time(rng.Int63n(int64(horizon)))
		var in []trace.Event
		for _, e := range events {
			if trace.OverlapsWindow(e, lo, hi) {
				in = append(in, e)
			}
		}
		var want Result
		sw.ComputeWindowInto(&want, in, lo, hi)

		// before and after are instants outside the window, the edges among
		// them. A marker, and an interval drawn zero-width, is a point at
		// one of them; any other interval ends at or before lo or starts at
		// or after hi.
		before := func() vclock.Time { return lo - 1 - vclock.Time(rng.Intn(3))*vclock.Time(rng.Intn(20)) }
		after := func() vclock.Time { return hi + vclock.Time(rng.Intn(3))*vclock.Time(rng.Intn(20)) }
		kinds := []trace.Event{
			{Kind: trace.KindCPU, Cat: trace.CatBackend, Name: "cpu"},
			{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Name: "k"},
			{Kind: trace.KindOp, Name: "outside"},
			{Kind: trace.KindOp, Name: "alpha"},
			{Kind: trace.KindTransition, Name: trace.TransPythonToBackend},
			{Kind: trace.KindPhase, Name: "phase"},
			{Kind: trace.KindOverhead, Overhead: trace.OverheadAnnotation},
		}
		all := append([]trace.Event(nil), in...)
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			e := kinds[rng.Intn(len(kinds))]
			span := vclock.Time(rng.Intn(3)) * vclock.Time(rng.Intn(15))
			switch e.Kind {
			case trace.KindTransition, trace.KindPhase, trace.KindOverhead:
				span = 0
			}
			switch {
			case span == 0 && rng.Intn(2) == 0:
				e.Start = before()
			case span == 0:
				e.Start = after()
			case rng.Intn(2) == 0:
				e.Start = before() + 1 - span
			default:
				e.Start = after()
			}
			e.End = e.Start + span
			if trace.OverlapsWindow(e, lo, hi) {
				t.Fatalf("generated %+v overlaps [%d, %d)", e, lo, hi)
			}
			all = slices.Insert(all, rng.Intn(len(all)+1), e)
		}
		var got Result
		sw.ComputeWindowInto(&got, all, lo, hi)
		return resultsEqual(&got, &want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
