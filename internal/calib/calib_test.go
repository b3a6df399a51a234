package calib

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// toyRunner builds a Runner over a miniature RL-like loop with known
// structure, running the loop once per flag set as a runner on a wall clock
// must. The overhead model uses jittered costs so calibration has real
// estimation work to do.
func toyRunner(iters int) Runner {
	return func(seed int64, flags ...trace.FeatureFlags) ([]*RunStats, error) {
		runs := make([]*RunStats, len(flags))
		for i, f := range flags {
			runs[i] = toyRun(iters, f, seed)
		}
		return runs, nil
	}
}

// toyRun runs the toy loop iters times under one flag set.
func toyRun(iters int, flags trace.FeatureFlags, seed int64) *RunStats {
	p := profiler.New(profiler.Options{Workload: "toy", Flags: flags, Seed: seed})
	dev := gpu.NewDevice(-1)
	s := p.NewProcess("trainer", -1, 0)
	ctx := cuda.NewContext(s, dev, cuda.DefaultCosts())
	for i := 0; i < iters; i++ {
		s.WithOperation("inference", func() {
			s.Python(vclock.Jittered(15*vclock.Microsecond, 0.2))
			s.CallBackend("forward", func() {
				s.Clock().Advance(4 * vclock.Microsecond)
				ctx.LaunchKernel("matmul", 3*vclock.Microsecond)
				ctx.StreamSynchronize()
			})
		})
		s.WithOperation("simulation", func() {
			s.CallSimulator("step", func() {
				s.Clock().Advance(40 * vclock.Microsecond)
			})
		})
		s.WithOperation("backpropagation", func() {
			s.Python(vclock.Jittered(10*vclock.Microsecond, 0.2))
			s.CallBackend("train", func() {
				s.Clock().Advance(6 * vclock.Microsecond)
				ctx.LaunchKernel("fwd", 3*vclock.Microsecond)
				ctx.LaunchKernel("bwd", 5*vclock.Microsecond)
				ctx.MemcpyAsync(cuda.HostToDevice, 64*1024)
				ctx.StreamSynchronize()
			})
		})
	}
	s.Close()
	tr := p.MustTrace()
	return StatsFromTrace(tr, flags, p.OverheadCounts(), p.TotalTime())
}

func TestCalibrateRecoversMeans(t *testing.T) {
	run := toyRunner(400)
	cal, err := Calibrate(run, 7)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	model := profiler.DefaultOverheads()
	within := func(name string, got, want vclock.Duration, tol float64) {
		t.Helper()
		if want == 0 {
			return
		}
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > tol {
			t.Errorf("%s: calibrated %v, true mean %v (%.1f%% off)", name, got, want, 100*rel)
		}
	}
	within("annotation", cal.Annotation, model.Annotation.Mean, 0.10)
	within("interception", cal.Interception, model.Interception.Mean, 0.10)
	within("cuda-intercept", cal.CUDAIntercept, model.CUDAIntercept.Mean, 0.10)
	within("cupti launch", cal.CUPTI[cuda.APILaunchKernel], model.CUPTI[cuda.APILaunchKernel].Mean, 0.15)
	within("cupti memcpy", cal.CUPTI[cuda.APIMemcpyAsync], model.CUPTI[cuda.APIMemcpyAsync].Mean, 0.25)
}

// TestCalibrateAndValidateCallRunnerOnce holds calibration to one training
// per seed: Calibrate asks its Runner once, for five distinct flag sets,
// and ValidateWith once, for the uninstrumented and the full set. A runner
// that answers with the wrong number of runs is an error.
func TestCalibrateAndValidateCallRunnerOnce(t *testing.T) {
	var calls [][]trace.FeatureFlags
	counting := func(seed int64, flags ...trace.FeatureFlags) ([]*RunStats, error) {
		calls = append(calls, append([]trace.FeatureFlags(nil), flags...))
		return toyRunner(20)(seed, flags...)
	}
	distinct := func(flags []trace.FeatureFlags) int {
		seen := map[trace.FeatureFlags]bool{}
		for _, f := range flags {
			seen[f] = true
		}
		return len(seen)
	}
	cal, err := Calibrate(counting, 4)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if len(calls) != 1 || len(calls[0]) != 5 || distinct(calls[0]) != 5 {
		t.Fatalf("Calibrate asked for %v, want one call with five distinct flag sets", calls)
	}
	calls = nil
	if _, err := ValidateWith("toy", counting, cal, 5); err != nil {
		t.Fatalf("ValidateWith: %v", err)
	}
	if want := []trace.FeatureFlags{trace.Uninstrumented(), trace.Full()}; len(calls) != 1 || !slices.Equal(calls[0], want) {
		t.Fatalf("ValidateWith asked for %v, want one call for %v", calls, want)
	}
	short := func(seed int64, flags ...trace.FeatureFlags) ([]*RunStats, error) {
		return toyRunner(20)(seed, flags[1:]...)
	}
	if _, err := Calibrate(short, 4); err == nil {
		t.Fatal("Calibrate accepted four runs for five flag sets")
	}
}

func TestCUPTILaunchInflationExceedsMemcpy(t *testing.T) {
	// The paper's Figure 10 property: per-API inflation differs, with
	// launches costing more than memcpys.
	cal, err := Calibrate(toyRunner(300), 11)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if cal.CUPTI[cuda.APILaunchKernel] <= cal.CUPTI[cuda.APIMemcpyAsync] {
		t.Fatalf("launch inflation %v should exceed memcpy inflation %v",
			cal.CUPTI[cuda.APILaunchKernel], cal.CUPTI[cuda.APIMemcpyAsync])
	}
}

func TestCorrectionRemovesMarkersAndShrinksTrace(t *testing.T) {
	cal, err := Calibrate(toyRunner(100), 3)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	full := toyRun(100, trace.Full(), 3)
	corrected := Correct(full.Trace, cal)
	if n := corrected.CountKind(trace.KindOverhead); n != 0 {
		t.Fatalf("corrected trace retains %d overhead markers", n)
	}
	if got := CorrectedTotal(corrected); got >= full.Total {
		t.Fatalf("corrected total %v not smaller than instrumented %v", got, full.Total)
	}
	// Mean-based correction can leave nanosecond-scale nesting
	// inconsistencies (an occurrence's true cost differs from the
	// calibrated mean), so full structural validation does not apply;
	// events must still be individually well-formed.
	for i, e := range corrected.Events {
		if err := e.Validate(); err != nil {
			t.Fatalf("corrected event %d invalid: %v", i, err)
		}
	}
}

func TestValidationBiasWithinPaperBound(t *testing.T) {
	res, err := Validate("toy", toyRunner(300), 5, 1234)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if bias := math.Abs(res.Bias()); bias > 0.16 {
		t.Fatalf("correction bias %.1f%% exceeds the paper's ±16%% bound", 100*bias)
	}
	if res.RawInflation() <= 1.0 {
		t.Fatalf("raw inflation %.2f; instrumentation should inflate runtime", res.RawInflation())
	}
	if res.Corrected >= res.Instrumented {
		t.Fatal("corrected time should be below instrumented time")
	}
}

func TestCorrectionBeatsNoCorrection(t *testing.T) {
	// The corrected estimate must be strictly closer to ground truth than
	// the uncorrected instrumented time (the paper's reason to correct).
	res, err := Validate("toy", toyRunner(200), 8, 999)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	errCorrected := math.Abs(float64(res.Corrected - res.Uninstrumented))
	errRaw := math.Abs(float64(res.Instrumented - res.Uninstrumented))
	if errCorrected >= errRaw {
		t.Fatalf("correction did not help: corrected err %v vs raw err %v", errCorrected, errRaw)
	}
}

func TestEstimatedOverheadComponents(t *testing.T) {
	cal, err := Calibrate(toyRunner(50), 2)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	full := toyRun(50, trace.Full(), 2)
	comps := EstimatedOverhead(full.Trace, cal)
	var haveCUPTI, haveHook, haveBackendIntercept, haveSimIntercept, haveAnnot bool
	for c, d := range comps {
		if d <= 0 {
			t.Errorf("component %v has non-positive overhead %v", c, d)
		}
		switch {
		case c.Kind == trace.OverheadCUPTI:
			haveCUPTI = true
		case c.Kind == trace.OverheadCUDAIntercept:
			haveHook = true
		case c.Kind == trace.OverheadInterception && c.Name == trace.TransPythonToBackend:
			haveBackendIntercept = true
		case c.Kind == trace.OverheadInterception && c.Name == trace.TransPythonToSimulator:
			haveSimIntercept = true
		case c.Kind == trace.OverheadAnnotation:
			haveAnnot = true
		}
	}
	if !haveCUPTI || !haveHook || !haveBackendIntercept || !haveSimIntercept || !haveAnnot {
		t.Fatalf("missing overhead components: %v", comps)
	}
}

func TestCorrectShiftsEventsAtRightPoints(t *testing.T) {
	// Hand-built trace: two markers with known means; events before,
	// containing, and after them.
	tr := &trace.Trace{Events: []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 100, Name: "python"},
		{Kind: trace.KindOverhead, Overhead: trace.OverheadInterception, Start: 10, End: 10, Name: "x"},
		{Kind: trace.KindCPU, Cat: trace.CatBackend, Start: 20, End: 40, Name: "call"},
		{Kind: trace.KindOverhead, Overhead: trace.OverheadInterception, Start: 30, End: 30, Name: "x"},
		{Kind: trace.KindCPU, Cat: trace.CatSimulator, Start: 50, End: 60, Name: "sim"},
	}}
	cal := &Calibration{Interception: 5}
	out := Correct(tr, cal)

	find := func(name string) trace.Event {
		for _, e := range out.Events {
			if e.Name == name {
				return e
			}
		}
		t.Fatalf("event %q missing from corrected trace", name)
		return trace.Event{}
	}
	python := find("python")
	if python.Start != 0 || python.End != 90 {
		t.Errorf("python corrected to [%v,%v], want [0,90]", python.Start, python.End)
	}
	call := find("call")
	// One marker (t=10) before it: shift start by 5. One marker inside
	// (t=30): end shifts by 10 total → [15, 30].
	if call.Start != 15 || call.End != 30 {
		t.Errorf("call corrected to [%v,%v], want [15,30]", call.Start, call.End)
	}
	sim := find("sim")
	if sim.Start != 40 || sim.End != 50 {
		t.Errorf("sim corrected to [%v,%v], want [40,50]", sim.Start, sim.End)
	}
}

func TestPCSampleEstimateMissesShortKernels(t *testing.T) {
	// 100 kernels of 10µs each (1ms total) spread over 1s, sampled at
	// 10ms: the sampler sees at most a few and cannot reconstruct busy
	// time accurately.
	var busy []gpu.Busy
	for i := 0; i < 100; i++ {
		s := vclock.Time(i) * vclock.Time(10*vclock.Millisecond)
		busy = append(busy, gpu.Busy{Start: s, End: s.Add(10 * vclock.Microsecond)})
	}
	exact := vclock.Duration(100 * 10 * vclock.Microsecond)
	est := PCSampleEstimate(busy, 0, vclock.Time(vclock.Second), 10*vclock.Millisecond)
	rel := math.Abs(float64(est-exact)) / float64(exact)
	if rel < 0.5 {
		t.Fatalf("PC sampling was unexpectedly accurate (%.0f%% error); kernels start exactly at sample points?", rel*100)
	}
}

func TestPCSampleEstimateEdgeCases(t *testing.T) {
	if got := PCSampleEstimate(nil, 0, 100, 0); got != 0 {
		t.Fatalf("zero period estimate = %v", got)
	}
	if got := PCSampleEstimate(nil, 100, 100, 10); got != 0 {
		t.Fatalf("empty window estimate = %v", got)
	}
}

// TestShiftIndexRankMatchesSortSearch pins the written-out searches to
// sort.Search: every rank, every resumed rank from every position at or
// below it, and every rank near every hint in [0, n], over marker times
// with duplicates.
func TestShiftIndexRankMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 7, 64} {
		ms := make([]marker, n)
		for i := range ms {
			ms[i] = marker{vclock.Time(rng.Intn(2*n + 1)), 1}
		}
		ix := buildShiftFromMarkers(ms)
		for q := vclock.Time(-1); q <= vclock.Time(2*n+2); q++ {
			want := sort.Search(n, func(i int) bool { return ix.times[i] >= q })
			if got := ix.rank(q, 0, n); got != want {
				t.Fatalf("n %d: rank(%d) = %d, want %d", n, q, got, want)
			}
			for from := 0; from <= want; from++ {
				if got := ix.rankFrom(q, from); got != want {
					t.Fatalf("n %d: rankFrom(%d, %d) = %d, want %d", n, q, from, got, want)
				}
			}
			for hint := 0; hint <= n; hint++ {
				if got := ix.rankNear(q, hint); got != want {
					t.Fatalf("n %d: rankNear(%d, %d) = %d, want %d", n, q, hint, got, want)
				}
			}
		}
	}
}
