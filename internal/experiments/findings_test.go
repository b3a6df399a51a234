package experiments

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/hypothesis"
	"repro/internal/overlap"
	"repro/internal/trace"
)

// The tests in this file assert the paper's findings F.1–F.12 hold in this
// reproduction. Since PR 6 the assertions live in the committed hypothesis
// grid (hypotheses.json, see DESIGN.md §10): each finding is a declarative
// hypothesis with per-seed conditions, and these tests require its verdict
// to be "confirmed". The grid, the CI gate (rlscope-hyp -gate) and this
// suite therefore stay in lockstep — a tolerance change happens in exactly
// one place. Absolute numbers differ from the paper (the substrate is a
// simulator, not the authors' testbed); what must hold is the shape: who
// wins, by roughly what factor, and where crossovers fall.

// gridEval evaluates the committed grid exactly once per test binary.
// sync.Once makes the shared state safe under t.Parallel and -shuffle —
// previously this file memoized figure results in unsynchronized package
// globals.
var gridEval struct {
	once sync.Once
	doc  *hypothesis.Document
	err  error
}

func evaluateGrid(t *testing.T) *hypothesis.Document {
	t.Helper()
	gridEval.once.Do(func() {
		grid, err := hypothesis.LoadGrid("../../hypotheses.json")
		if err != nil {
			gridEval.err = err
			return
		}
		// Timing hypotheses measure host wall-clock — meaningless under
		// a loaded test runner — and never gate; the CLI covers them.
		gridEval.doc, gridEval.err = hypothesis.NewEvaluator(Metrics).
			Evaluate(grid, hypothesis.Options{Timing: false})
	})
	if gridEval.err != nil {
		t.Fatalf("evaluating hypothesis grid: %v", gridEval.err)
	}
	return gridEval.doc
}

// requireConfirmed asserts one hypothesis's verdict, dumping the full
// per-seed evidence on failure.
func requireConfirmed(t *testing.T, id string) {
	t.Helper()
	doc := evaluateGrid(t)
	for i := range doc.Results {
		r := &doc.Results[i]
		if r.ID != id {
			continue
		}
		if r.Verdict != hypothesis.Confirmed {
			evidence, _ := json.MarshalIndent(r, "", "  ")
			t.Errorf("%s (%s) verdict = %s, want confirmed\n%s", id, r.Title, r.Verdict, evidence)
		}
		return
	}
	t.Fatalf("hypothesis %s not in the evaluated grid", id)
}

func TestTable1HasFourFrameworks(t *testing.T)    { requireConfirmed(t, "D.table1") }
func TestFigure3MatchesPaperExactly(t *testing.T) { requireConfirmed(t, "D.fig3") }

// F.1: Eager execution is 1.9×–4.8× slower than both Autograph and Graph,
// while Graph and Autograph stay within ~20% of each other (TD3).
func TestF1EagerSlowdown(t *testing.T) { requireConfirmed(t, "F.1") }

// F.2: Autograph slashes Python time in inference/backprop relative to
// Graph, via near-zero Python→Backend transitions.
func TestF2AutographReducesPythonTime(t *testing.T) { requireConfirmed(t, "F.2") }

// F.3: PyTorch Eager is ~2.3× faster than TensorFlow Eager, explained by
// fewer backend transitions per training step.
func TestF3PyTorchEagerVsTFEager(t *testing.T) { requireConfirmed(t, "F.3") }

// F.4: stable-baselines DDPG's MPI-friendly Adam and fragmented session
// runs inflate Graph backprop; TD3's gap is far smaller.
func TestF4MPIAdamInflatesDDPGGraphBackprop(t *testing.T) { requireConfirmed(t, "F.4") }

// F.5: Autograph inflates simulation Python time when few consecutive
// steps amortize the loop-entry cost; longer collect phases fix it.
func TestF5AutographLoopEntryAmortization(t *testing.T) { requireConfirmed(t, "F.5") }

// F.6: Autograph's inference Backend time is ~4× Graph's, without extra
// transitions to explain it.
func TestF6AutographInferenceBackendAnomaly(t *testing.T) { requireConfirmed(t, "F.6") }

// F.7: total GPU time is low (≤ ~14%) in every framework configuration.
func TestF7GPUTimeLowAcrossFrameworks(t *testing.T) { requireConfirmed(t, "F.7") }

// F.8: CPU-side CUDA API time dominates GPU kernel time (paper: 3.6× on
// average).
func TestF8CUDAAPIDominatesGPUTime(t *testing.T) { requireConfirmed(t, "F.8") }

// F.9: even inference and backpropagation spend at most ~13% of their time
// on the GPU — RL operations are CPU-bound.
func TestF9OperationsAreCPUBound(t *testing.T) { requireConfirmed(t, "F.9") }

// F.10: on-policy algorithms are ≥3.5× more simulation-bound than
// off-policy ones.
func TestF10OnPolicyMoreSimulationBound(t *testing.T) { requireConfirmed(t, "F.10") }

// F.11: sampled GPU utilization reads ~100% in Minigo while per-worker GPU
// time is tiny — the utilization illusion.
func TestF11MinigoUtilizationMisleads(t *testing.T) { requireConfirmed(t, "F.11") }

// F.12: simulation is always a large bottleneck — ≥ ~38% of training time
// everywhere, ~99.6% in AirLearning.
func TestF12SimulationAlwaysLarge(t *testing.T) { requireConfirmed(t, "F.12") }

// Extension of F.11: sampled utilization saturates as the self-play pool
// grows, while no individual worker becomes more GPU-bound.
func TestScalingExacerbatesUtilizationIllusion(t *testing.T) {
	requireConfirmed(t, "R.scaling-illusion")
}

// Repo claims: bounded-memory streaming replay is exact, and same-seed
// workload replays are byte-identical on disk.
func TestStreamBoundedReplayExact(t *testing.T) { requireConfirmed(t, "D.stream-bounded") }
func TestSeedReproducibility(t *testing.T)      { requireConfirmed(t, "D.seed-repro") }

// TestGridHasNoSurpriseVerdicts pins the whole document: every non-timing
// hypothesis in the committed grid must be confirmed, so a newly added
// hypothesis cannot silently ride along refuted or inconclusive.
func TestGridHasNoSurpriseVerdicts(t *testing.T) {
	doc := evaluateGrid(t)
	for i := range doc.Results {
		r := &doc.Results[i]
		if r.Verdict != hypothesis.Confirmed {
			t.Errorf("%s verdict = %s, want confirmed", r.ID, r.Verdict)
		}
	}
	if n := doc.Summary[hypothesis.Confirmed]; n != len(doc.Results) {
		t.Errorf("summary counts %d confirmed of %d results", n, len(doc.Results))
	}
}

// Scoping is the information RL-Scope adds over a conventional profiler
// (paper §3.3): the same trace stripped of its operation annotations must
// sweep to strictly fewer breakdown cells.
func TestScopingAddsInformation(t *testing.T) {
	tr, err := walkerRun(400, 5, trace.Uninstrumented())
	if err != nil {
		t.Fatal(err)
	}
	events := tr.ProcEvents(0)
	var flat []trace.Event
	for _, e := range events {
		if e.Kind != trace.KindOp {
			flat = append(flat, e)
		}
	}
	if scoped, unscoped := len(overlap.Compute(events).ByKey), len(overlap.Compute(flat).ByKey); scoped <= unscoped {
		t.Fatalf("scoping added no information: %d scoped cells, %d flat", scoped, unscoped)
	}
}

// The renders stay exercised at a small scale; the figures' numeric claims
// live in the grid above.
func TestRendersNonEmpty(t *testing.T) {
	f4, err := Figure4(Options{Steps: 200, Seed: 1})
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	f5, err := Figure5(Options{Steps: 200, Seed: 1})
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	f7, err := Figure7(Options{Steps: 128, Seed: 1})
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	f8s, err := Figure8Scaling(Options{Steps: 50, Seed: 1})
	if err != nil {
		t.Fatalf("Figure8Scaling: %v", err)
	}
	if f4.Render() == "" || f5.Render() == "" || f7.Render() == "" || f8s.Render() == "" {
		t.Fatal("empty figure render")
	}
	if RenderFigure6() == "" {
		t.Fatal("empty figure 6 render")
	}
	if RenderTable1() == "" {
		t.Fatal("empty table 1 render")
	}
}
