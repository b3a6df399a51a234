package workloads

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

func runSpec(t *testing.T, spec Spec) *overlap.Result {
	t.Helper()
	stats, err := Run(spec, trace.Uninstrumented())
	if err != nil {
		t.Fatalf("Run(%s): %v", spec.Name(), err)
	}
	return overlap.Compute(stats.Trace.ProcEvents(0))
}

func TestWorkloadProducesAllThreeOperations(t *testing.T) {
	res := runSpec(t, Spec{Algo: "DDPG", Env: "Walker2D", Model: backend.Graph, TotalSteps: 300, Seed: 1})
	for _, op := range []string{OpInference, OpSimulation, OpBackpropagation} {
		if res.OpTotal(op) == 0 {
			t.Fatalf("no time attributed to %s", op)
		}
	}
	if res.GPUTime(OpSimulation) != 0 {
		t.Fatal("simulation should not touch the GPU")
	}
	if res.GPUTime(OpBackpropagation) == 0 {
		t.Fatal("backpropagation recorded no GPU time")
	}
}

func TestAllAlgorithmsRunOnTheirEnvs(t *testing.T) {
	cases := []Spec{
		{Algo: "DQN", Env: "Pong", Model: backend.Graph, TotalSteps: 300, Seed: 2},
		{Algo: "DDPG", Env: "Walker2D", Model: backend.Graph, TotalSteps: 200, Seed: 2},
		{Algo: "TD3", Env: "Walker2D", Model: backend.Autograph, TotalSteps: 200, Seed: 2, CollectStepsOverride: 100},
		{Algo: "SAC", Env: "Walker2D", Model: backend.EagerPyTorch, TotalSteps: 200, Seed: 2},
		{Algo: "A2C", Env: "Walker2D", Model: backend.Graph, TotalSteps: 100, Seed: 2},
		{Algo: "PPO2", Env: "Hopper", Model: backend.Graph, TotalSteps: 128, Seed: 2},
		{Algo: "PPO2", Env: "Pong", Model: backend.Graph, TotalSteps: 128, Seed: 2},
	}
	for _, spec := range cases {
		t.Run(spec.Name(), func(t *testing.T) {
			res := runSpec(t, spec)
			if res.Total() == 0 {
				t.Fatal("empty breakdown")
			}
		})
	}
}

func TestDQNOnContinuousEnvRejected(t *testing.T) {
	_, err := Run(Spec{Algo: "DQN", Env: "Walker2D", Model: backend.Graph, TotalSteps: 100, Seed: 1}, trace.Uninstrumented())
	if err == nil {
		t.Fatal("DQN on Walker2D should be rejected")
	}
}

func TestUnknownAlgoAndEnvRejected(t *testing.T) {
	if _, err := Run(Spec{Algo: "SARSA", Env: "Pong", TotalSteps: 10}, trace.Uninstrumented()); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Run(Spec{Algo: "DQN", Env: "Doom", TotalSteps: 10}, trace.Uninstrumented()); err == nil {
		t.Fatal("unknown env accepted")
	}
	if _, err := Run(Spec{Algo: "DQN", Env: "Pong", TotalSteps: 0}, trace.Uninstrumented()); err == nil {
		t.Fatal("zero steps accepted")
	}
}

func TestOnPolicyMoreSimulationBound(t *testing.T) {
	// Seed of the paper's F.10: on-policy A2C spends a far larger
	// fraction in simulation than off-policy SAC.
	a2c := runSpec(t, Spec{Algo: "A2C", Env: "Walker2D", Model: backend.Graph, TotalSteps: 400, Seed: 3})
	sac := runSpec(t, Spec{Algo: "SAC", Env: "Walker2D", Model: backend.Graph, TotalSteps: 400, Seed: 3})
	fracA2C := a2c.OpTotal(OpSimulation).Seconds() / a2c.Total().Seconds()
	fracSAC := sac.OpTotal(OpSimulation).Seconds() / sac.Total().Seconds()
	if fracA2C < 2*fracSAC {
		t.Fatalf("A2C simulation share %.1f%% should dwarf SAC's %.1f%%", 100*fracA2C, 100*fracSAC)
	}
}

func TestInstrumentedRunCarriesMarkers(t *testing.T) {
	stats, err := Run(Spec{Algo: "DDPG", Env: "Walker2D", Model: backend.Graph, TotalSteps: 200, Seed: 4}, trace.Full())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Trace.CountKind(trace.KindOverhead) == 0 {
		t.Fatal("full-instrumentation run has no overhead markers")
	}
	if stats.OverheadCounts[trace.OverheadCUPTI] == 0 {
		t.Fatal("no CUPTI occurrences")
	}
	if len(stats.APICount) == 0 {
		t.Fatal("no CUDA API stats")
	}
}

func TestSpecName(t *testing.T) {
	s := Spec{Algo: "TD3", Env: "Walker2D", Model: backend.EagerPyTorch}
	if s.Name() != "TD3-Walker2D-PyTorch Eager" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestRunnerReseeds(t *testing.T) {
	r := Runner(Spec{Algo: "A2C", Env: "Walker2D", Model: backend.Graph, TotalSteps: 50, Seed: 1})
	total := func(seed int64) vclock.Duration {
		t.Helper()
		runs, err := r(seed, trace.Uninstrumented())
		if err != nil {
			t.Fatalf("runner: %v", err)
		}
		return runs[0].Total
	}
	a, b := total(42), total(42)
	if a != b {
		t.Fatalf("same seed produced different totals: %v vs %v", a, b)
	}
	if total(43) == a {
		t.Fatal("different seeds produced identical totals (suspicious)")
	}
}
