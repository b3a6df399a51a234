package rlscope_test

import (
	"context"
	"fmt"
	"os"

	rlscope "repro"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ExampleNew profiles a miniature training loop: annotate the high-level
// operations, let the interception wrappers record simulator/backend/CUDA
// activity, and collect the trace.
func ExampleNew() {
	p := rlscope.New(rlscope.Options{
		Workload: "example",
		Flags:    rlscope.FullInstrumentation(),
		Seed:     1,
	})
	dev := gpu.NewDevice(-1)
	sess := p.NewProcess("trainer", -1, 0)
	ctx := cuda.NewContext(sess, dev, cuda.DefaultCosts())

	sess.SetPhase("training")
	for step := 0; step < 10; step++ {
		sess.WithOperation("inference", func() {
			sess.CallBackend("policy.forward", func() {
				ctx.LaunchKernel("dense", 3*vclock.Microsecond)
				ctx.StreamSynchronize()
			})
		})
		sess.WithOperation("simulation", func() {
			sess.CallSimulator("env.step", func() {
				sess.Clock().Advance(120 * vclock.Microsecond)
			})
		})
	}
	sess.Close()

	tr := p.MustTrace()
	rep, err := rlscope.NewEngine().Analyze(context.Background(), rlscope.FromTrace(tr))
	if err != nil {
		panic(err)
	}
	res := rep.Results[sess.Proc()]
	// "(untracked)" is the profiler's own book-keeping time between
	// operations — the overhead that Calibrate measures and WithCorrection
	// subtracts.
	fmt.Println("operations:", res.OpNames())
	fmt.Println("simulation slower than inference:",
		res.OpTotal("simulation") > res.OpTotal("inference"))
	fmt.Println("inference ran GPU kernels:", res.GPUTime("inference") > 0)
	// Output:
	// operations: [(untracked) inference simulation]
	// simulation slower than inference: true
	// inference ran GPU kernels: true
}

// ExampleEngine runs the cross-stack overlap computation over the paper's
// Figure 3 worked example: an mcts_tree_search operation containing two
// expand_leaf operations, each overlapping a GPU kernel.
func ExampleEngine() {
	ms := func(f float64) vclock.Time { return vclock.Time(f * float64(vclock.Millisecond)) }
	tr := &rlscope.Trace{Events: []rlscope.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: ms(0), End: ms(3.74), Name: "python"},
		{Kind: trace.KindOp, Start: ms(0), End: ms(3.74), Name: "mcts_tree_search"},
		{Kind: trace.KindOp, Start: ms(0.75), End: ms(2.10), Name: "expand_leaf"},
		{Kind: trace.KindOp, Start: ms(2.60), End: ms(3.74), Name: "expand_leaf"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: ms(1.05), End: ms(1.90), Name: "expand"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: ms(2.75), End: ms(3.60), Name: "expand"},
	}}
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromTrace(tr))
	if err != nil {
		panic(err)
	}
	res := rep.Results[0]
	fmt.Println("CPU, mcts_tree_search:", res.CPUTime("mcts_tree_search")-res.GPUTime("mcts_tree_search"))
	fmt.Println("GPU+CPU, expand_leaf: ", res.GPUTime("expand_leaf"))
	// Output:
	// CPU, mcts_tree_search: 1.25ms
	// GPU+CPU, expand_leaf:  1.7ms
}

// ExampleEngine_streaming analyzes a chunked trace directory with bounded
// memory: chunks decode lazily and each process's window is swept as soon
// as no later chunk can reach back into it. The result is byte-identical to
// analyzing the materialized trace.
func ExampleEngine_streaming() {
	p := rlscope.New(rlscope.Options{Workload: "streaming-example", Seed: 7})
	sess := p.NewProcess("trainer", -1, 0)
	sess.SetPhase("training")
	for i := 0; i < 50; i++ {
		sess.WithOperation("inference", func() {
			sess.Clock().Advance(vclock.Millisecond)
		})
	}
	sess.Close()

	dir, err := os.MkdirTemp("", "rlscope-example-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if err := p.WriteTo(dir); err != nil {
		panic(err)
	}

	eng := rlscope.NewEngine(
		rlscope.WithWorkers(2),
		rlscope.WithMaxResidentBytes(32<<10), // keep ≤ ~32 KiB of decoded events resident
	)
	streamed, err := eng.Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		panic(err)
	}
	materialized, err := eng.Analyze(context.Background(), rlscope.FromTrace(mustReadDir(dir)))
	if err != nil {
		panic(err)
	}
	fmt.Println("inference time:", streamed.Results[0].OpTotal("inference"))
	fmt.Println("identical to materialized analysis:",
		streamed.Results[0].OpTotal("inference") == materialized.Results[0].OpTotal("inference"))
	// Output:
	// inference time: 50ms
	// identical to materialized analysis: true
}

func mustReadDir(dir string) *rlscope.Trace {
	tr, err := trace.ReadDir(dir)
	if err != nil {
		panic(err)
	}
	return tr
}

// exampleRunner profiles the same workload under each feature-flag subset
// calibration requests, running it once per subset.
func exampleRunner() rlscope.Runner {
	return func(seed int64, flagSets ...rlscope.FeatureFlags) ([]*rlscope.RunStats, error) {
		runs := make([]*rlscope.RunStats, len(flagSets))
		for i, flags := range flagSets {
			p := rlscope.New(rlscope.Options{Workload: "calib-example", Flags: flags, Seed: seed})
			dev := gpu.NewDevice(-1)
			sess := p.NewProcess("trainer", -1, 0)
			ctx := cuda.NewContext(sess, dev, cuda.DefaultCosts())
			for i := 0; i < 50; i++ {
				sess.WithOperation("step", func() {
					sess.CallBackend("train", func() {
						ctx.LaunchKernel("k", 3*vclock.Microsecond)
						ctx.StreamSynchronize()
					})
				})
			}
			sess.Close()
			runs[i] = rlscope.StatsFromTrace(p.MustTrace(), flags, p.OverheadCounts(), p.TotalTime())
		}
		return runs, nil
	}
}

// ExampleCalibrate measures the profiler's own book-keeping costs and
// subtracts them from an instrumented trace (§3.4, Appendix C).
func ExampleCalibrate() {
	runner := exampleRunner()
	cal, err := rlscope.Calibrate(runner, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("interception cost calibrated:", cal.Interception > 0)
	fmt.Println("CUDA hook cost calibrated:   ", cal.CUDAIntercept > 0)

	// Correct an instrumented run: overhead is subtracted at the points
	// where the book-keeping occurred, and the markers disappear.
	runs, _ := runner(99, rlscope.FullInstrumentation())
	stats := runs[0]
	corrected := rlscope.Correct(stats.Trace, cal)
	fmt.Println("overhead markers removed:    ", corrected.CountKind(trace.KindOverhead) == 0)
	// Output:
	// interception cost calibrated: true
	// CUDA hook cost calibrated:    true
	// overhead markers removed:     true
}

// ExampleWithCorrection composes calibration into the Engine: the streaming
// analysis corrects each event in flight, producing overhead-corrected
// breakdowns under a memory budget without materializing the corrected
// trace — byte-identical to Correct-then-analyze.
func ExampleWithCorrection() {
	runner := exampleRunner()
	cal, err := rlscope.Calibrate(runner, 7)
	if err != nil {
		fmt.Println(err)
		return
	}
	runs, _ := runner(99, rlscope.FullInstrumentation())
	stats := runs[0]

	dir, err := os.MkdirTemp("", "rlscope-corrected-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	w, err := trace.NewWriter(dir, 4<<10)
	if err != nil {
		panic(err)
	}
	w.Append(stats.Trace.Events...)
	if err := w.Close(stats.Trace.Meta); err != nil {
		panic(err)
	}

	eng := rlscope.NewEngine(
		rlscope.WithCorrection(cal),
		rlscope.WithMaxResidentBytes(16<<10),
	)
	rep, err := eng.Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		panic(err)
	}
	materialized, err := rlscope.NewEngine().Analyze(
		context.Background(), rlscope.FromTrace(rlscope.Correct(stats.Trace, cal)))
	if err != nil {
		panic(err)
	}
	fmt.Println("corrected streaming ran:", rep.Corrected)
	fmt.Println("matches Correct-then-analyze:",
		rep.Results[0].OpTotal("step") == materialized.Results[0].OpTotal("step"))
	// Output:
	// corrected streaming ran: true
	// matches Correct-then-analyze: true
}

// ExampleEngine_parallel analyzes a multi-process trace with a parallel
// worker pool; results are byte-identical to the sequential run at any
// pool size.
func ExampleEngine_parallel() {
	p := rlscope.New(rlscope.Options{Workload: "parallel-example", Seed: 7})
	for w := 0; w < 4; w++ {
		sess := p.NewProcess(fmt.Sprintf("worker%d", w), -1, 0)
		sess.SetPhase("selfplay")
		for i := 0; i < 5; i++ {
			sess.WithOperation("mcts", func() {
				sess.Clock().Advance(vclock.Millisecond)
			})
		}
		sess.Close()
	}
	tr := p.MustTrace()

	rep, err := rlscope.NewEngine(rlscope.WithWorkers(4)).Analyze(
		context.Background(), rlscope.FromTrace(tr))
	if err != nil {
		panic(err)
	}
	fmt.Println("processes analyzed:", len(rep.Results))
	fmt.Println("worker0 mcts time:  ", rep.Results[0].OpTotal("mcts"))
	// Output:
	// processes analyzed: 4
	// worker0 mcts time:   5ms
}
