package rlscope

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// runToy drives a miniature annotated workload through the public API.
func runToy(flags FeatureFlags, seed int64) (*Profiler, *Trace) {
	p := New(Options{Workload: "api-toy", Flags: flags, Seed: seed})
	dev := gpu.NewDevice(-1)
	sess := p.NewProcess("trainer", -1, 0)
	ctx := cuda.NewContext(sess, dev, cuda.DefaultCosts())
	sess.SetPhase("training")
	for i := 0; i < 20; i++ {
		sess.WithOperation("inference", func() {
			sess.CallBackend("forward", func() {
				ctx.LaunchKernel("matmul", 3*vclock.Microsecond)
				ctx.StreamSynchronize()
			})
		})
		sess.WithOperation("simulation", func() {
			sess.CallSimulator("step", func() {
				sess.Clock().Advance(40 * vclock.Microsecond)
			})
		})
	}
	sess.Close()
	return p, p.MustTrace()
}

func TestPublicAPIEndToEnd(t *testing.T) {
	_, tr := runToy(FullInstrumentation(), 1)
	results := engineResults(tr, WithWorkers(1))
	res := results[0]
	if res == nil {
		t.Fatal("no analysis for process 0")
	}
	if res.OpTotal("inference") == 0 || res.OpTotal("simulation") == 0 {
		t.Fatal("operations missing from breakdown")
	}
	if res.GPUTime("inference") == 0 {
		t.Fatal("inference has no GPU time")
	}
	if res.TransitionCount("simulation", trace.TransPythonToSimulator) != 20 {
		t.Fatal("simulator transition count wrong")
	}
}

func TestPublicAPICalibrationRoundTrip(t *testing.T) {
	runner := Runner(func(seed int64, flagSets ...FeatureFlags) ([]*RunStats, error) {
		runs := make([]*RunStats, len(flagSets))
		for i, flags := range flagSets {
			p, tr := runToy(flags, seed)
			runs[i] = StatsFromTrace(tr, flags, p.OverheadCounts(), p.TotalTime())
		}
		return runs, nil
	})
	cal, err := Calibrate(runner, 7)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if cal.Interception <= 0 || cal.CUDAIntercept <= 0 {
		t.Fatalf("degenerate calibration: %+v", cal)
	}
	_, tr := runToy(FullInstrumentation(), 99)
	corrected := Correct(tr, cal)
	if corrected.CountKind(trace.KindOverhead) != 0 {
		t.Fatal("corrected trace retains overhead markers")
	}
	v, err := Validate("api-toy", runner, 7, 1234)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if v.Corrected >= v.Instrumented {
		t.Fatal("correction did not shrink the instrumented estimate")
	}
}

func TestFlagHelpers(t *testing.T) {
	if !FullInstrumentation().Any() || Uninstrumented().Any() {
		t.Fatal("flag helpers wrong")
	}
	if DefaultOverheads().Interception.Mean <= 0 {
		t.Fatal("default overheads empty")
	}
	if results := engineResults(&Trace{}, WithWorkers(1)); len(results) != 0 {
		t.Fatal("empty trace should produce no per-process results")
	}
}
