package minigo

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/cuda"
	"repro/internal/goboard"
	"repro/internal/gpu"
	"repro/internal/nvsmi"
	"repro/internal/overlap"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// smallConfig keeps unit-test runtime low while preserving the pipeline
// structure (multiple workers, shared device).
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.SimsPerMove = 8
	cfg.LeafBatch = 4
	cfg.MaxMovesPerGame = 12
	cfg.EvalGames = 2
	cfg.TrainSteps = 4
	return cfg
}

func TestPipelineRuns(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := trainSteps(res.Trace); n != smallConfig().TrainSteps {
		t.Fatalf("%d minigo/train_step events, want %d: SGD runs only on collected examples", n, smallConfig().TrainSteps)
	}
	if len(res.WorkerTotal) != 4 {
		t.Fatalf("worker totals for %d workers, want 4", len(res.WorkerTotal))
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestWorkerGPUTimeTinyFractionOfTotal(t *testing.T) {
	// The heart of F.11: worker runtime is dominated by CPU-side MCTS
	// and inference dispatch; actual GPU execution is a sliver.
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for proc, total := range res.WorkerTotal {
		gpuTime := res.WorkerGPU[proc]
		if gpuTime == 0 {
			t.Fatalf("worker %d has no GPU time at all", proc)
		}
		frac := gpuTime.Seconds() / total.Seconds()
		if frac > 0.05 {
			t.Fatalf("worker %d GPU fraction %.1f%%, want < 5%%", proc, 100*frac)
		}
	}
}

func TestSampledUtilizationMisleads(t *testing.T) {
	// nvidia-smi-style sampling reads high while true utilization is
	// low. The sample period is scaled to the simulated span the same
	// way the paper's 1/6s period relates to its hours-long runs.
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	period := vclock.Duration(res.SpanEnd-res.SpanStart) / 40
	rep := nvsmi.Sample(res.Busy, res.SpanStart, res.SpanEnd, period)
	if rep.Utilization() < 0.9 {
		t.Fatalf("sampled utilization %.0f%%, expected ~100%%", 100*rep.Utilization())
	}
	if rep.TrueUtilization() > 0.5*rep.Utilization() {
		t.Fatalf("true utilization %.1f%% not far below sampled %.0f%%",
			100*rep.TrueUtilization(), 100*rep.Utilization())
	}
}

func TestWorkersShareOneDeviceConcurrently(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Workers run concurrently in virtual time: busy intervals from
	// different processes must interleave within the self-play span.
	procs := map[trace.ProcID]bool{}
	for _, b := range res.Busy {
		procs[b.Proc] = true
	}
	if len(procs) < 4 {
		t.Fatalf("device saw work from %d processes, want >= 4", len(procs))
	}
}

func TestTraceHasPaperOperations(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	perProc := overlap.ComputeTrace(res.Trace)
	// Worker processes must show the Figure 2 operations, with
	// expand_leaf nested inside mcts_tree_search (the inner op wins
	// attribution during inference).
	workerChecked := false
	for proc, info := range res.Trace.Meta.Procs {
		if info.Parent < 0 {
			continue // trainer
		}
		r := perProc[proc]
		if r.OpTotal("mcts_tree_search") == 0 {
			t.Fatalf("worker %s has no mcts_tree_search time", info.Name)
		}
		if r.OpTotal("expand_leaf") == 0 {
			t.Fatalf("worker %s has no expand_leaf time", info.Name)
		}
		if r.GPUTime("expand_leaf") == 0 {
			t.Fatalf("worker %s expand_leaf has no GPU time", info.Name)
		}
		if r.GPUTime("mcts_tree_search") != 0 {
			t.Fatalf("worker %s tree traversal should be pure CPU", info.Name)
		}
		workerChecked = true
	}
	if !workerChecked {
		t.Fatal("no worker processes in trace")
	}
}

func TestPhasesRecorded(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	phases := map[string]bool{}
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindPhase {
			phases[e.Name] = true
		}
	}
	for _, want := range []string{"selfplay", "sgd_updates", "evaluation"} {
		if !phases[want] {
			t.Fatalf("phase %q missing; have %v", want, phases)
		}
	}
}

func TestForkRelationshipsRecorded(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	workers := 0
	for _, info := range res.Trace.Meta.Procs {
		if info.Parent == 0 {
			workers++
			if want := fmt.Sprintf("selfplay_worker_%d", workers-1); info.Name == "" {
				t.Fatalf("worker missing name (want like %s)", want)
			}
		}
	}
	if workers != 4 {
		t.Fatalf("trace has %d forked workers, want 4", workers)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero workers accepted")
	}
	cfg = DefaultConfig()
	cfg.BoardSize = 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("board size 1 accepted")
	}
}

func TestInstrumentedRunCorrectsAcrossProcesses(t *testing.T) {
	// A fully instrumented multi-process run must carry overhead markers
	// in every worker, and offline correction must shrink each process's
	// timeline.
	cfg := smallConfig()
	cfg.Flags = trace.Full()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	perProc := map[trace.ProcID]int{}
	for _, e := range res.Trace.Events {
		if e.Kind == trace.KindOverhead {
			perProc[e.Proc]++
		}
	}
	if len(perProc) < cfg.Workers+1 {
		t.Fatalf("overhead markers in %d processes, want every worker + trainer", len(perProc))
	}
	cal := &calib.Calibration{
		Annotation:    3 * vclock.Microsecond,
		Interception:  6 * vclock.Microsecond,
		CUDAIntercept: 3 * vclock.Microsecond,
		CUPTI:         map[string]vclock.Duration{"cudaLaunchKernel": 5 * vclock.Microsecond},
	}
	corrected := calib.Correct(res.Trace, cal)
	for _, p := range res.Trace.ProcIDs() {
		before := overlap.Compute(res.Trace.ProcEvents(p))
		after := overlap.Compute(corrected.ProcEvents(p))
		db := before.SpanEnd - before.SpanStart
		da := after.SpanEnd - after.SpanStart
		if da >= db {
			t.Fatalf("proc %d did not shrink under correction: %v -> %v", p, db, da)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if trainSteps(a.Trace) != trainSteps(b.Trace) || a.SpanEnd != b.SpanEnd {
		t.Fatalf("runs diverged: %d/%v vs %d/%v", trainSteps(a.Trace), a.SpanEnd, trainSteps(b.Trace), b.SpanEnd)
	}
}

// trainSteps counts the trace's minigo/train_step events: one per SGD step,
// none when self-play collected no examples.
func trainSteps(tr *trace.Trace) int {
	n := 0
	for _, e := range tr.Events {
		if e.Name == "minigo/train_step" {
			n++
		}
	}
	return n
}

// TestEvaluateAllocs pins a warm Evaluate of eight boards at 21 allocations,
// read as a floored average. The evaluator's input, priors and returned
// slices and the network's layer outputs are reused, so none of the 21 is
// per board or per tensor: they are the closures and device-copy records
// of the profiler and backend calls around one batched inference. A copy's
// event name is a constant and allocates nothing.
func TestEvaluateAllocs(t *testing.T) {
	p := profiler.New(profiler.Options{Workload: "minigo", Flags: trace.Uninstrumented(), Seed: 1})
	sess := p.NewProcess("selfplay_worker_0", -1, 0)
	b := backend.New(sess, cuda.NewContext(sess, gpu.NewDevice(-1), cuda.DefaultCosts()), backend.Graph)
	ev := &evaluator{b: b, sess: sess, pv: newPVNet(rand.New(rand.NewSource(1)), "pv", 9)}
	boards := make([]*goboard.Board, 8)
	for i := range boards {
		bd := goboard.New(9)
		for m := 0; m < i; m++ {
			legal := bd.LegalMoves(nil)
			_ = bd.Play(legal[m*7%len(legal)])
		}
		boards[i] = bd
	}
	ev.Evaluate(boards)
	if n := testing.AllocsPerRun(100, func() { ev.Evaluate(boards) }); n != 21 {
		t.Errorf("warm Evaluate of %d boards: %v allocations, want 21", len(boards), n)
	}
}
