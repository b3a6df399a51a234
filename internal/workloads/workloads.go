// Package workloads composes an RL algorithm, a simulator, and an ML
// backend execution model into the annotated training loop every case study
// in the paper profiles:
//
//	for each iteration:
//	    collect: [inference → simulation] × CollectSteps
//	    update:  [backpropagation] × UpdatesPerCollect
//
// The three operation annotations — inference, simulation, backpropagation —
// are exactly the paper's Figure 4/5/7 legends.
package workloads

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Operation annotation labels (the paper's training-loop stages).
const (
	OpInference       = "inference"
	OpSimulation      = "simulation"
	OpBackpropagation = "backpropagation"
)

// stepGlueCost is the per-step high-level driver glue inside the data
// collection loop (action unboxing, observation conversion).
var stepGlueCost = vclock.Jittered(8*vclock.Microsecond, 0.25)

// AlgorithmNames lists the implemented algorithms.
var AlgorithmNames = []string{"DQN", "DDPG", "TD3", "SAC", "A2C", "PPO2"}

// Spec describes one training workload.
type Spec struct {
	// Algo is one of AlgorithmNames.
	Algo string
	// Env is one of sim.SurveyNames.
	Env string
	// Model is the ML backend execution model (Table 1).
	Model backend.ExecModel
	// TotalSteps is the number of environment steps to run; iterations
	// are derived from the algorithm's CollectSteps.
	TotalSteps int
	// Seed drives every stochastic component.
	Seed int64
	// CollectStepsOverride changes the algorithm's
	// consecutive-simulator-steps hyperparameter (paper F.5's DDPG
	// 100→1000 experiment).
	CollectStepsOverride int
}

// Name labels the workload in traces and reports.
func (s Spec) Name() string {
	return fmt.Sprintf("%s-%s-%s", s.Algo, s.Env, s.Model)
}

// newAgent builds the algorithm for env, refusing DQN on a continuous
// action space.
func newAgent(spec Spec, b *backend.Backend, env sim.Env) (rl.Agent, error) {
	cfg := rl.Config{
		Backend:              b,
		ObsDim:               env.ObsDim(),
		ActDim:               env.ActDim(),
		Discrete:             env.Discrete(),
		Seed:                 spec.Seed + 17,
		CollectStepsOverride: spec.CollectStepsOverride,
	}
	switch spec.Algo {
	case "DQN":
		if !env.Discrete() {
			return nil, fmt.Errorf("workloads: DQN needs a discrete env, %s is continuous", env.Name())
		}
		return rl.NewDQN(cfg), nil
	case "DDPG":
		return rl.NewDDPG(cfg), nil
	case "TD3":
		return rl.NewTD3(cfg), nil
	case "SAC":
		return rl.NewSAC(cfg), nil
	case "A2C":
		return rl.NewA2C(cfg), nil
	case "PPO2":
		return rl.NewPPO2(cfg), nil
	default:
		return nil, fmt.Errorf("workloads: unknown algorithm %q", spec.Algo)
	}
}

// Run executes the workload once under the given profiler feature flags and
// returns its run statistics (trace, totals, overhead counts).
func Run(spec Spec, flags trace.FeatureFlags) (*calib.RunStats, error) {
	runs, err := RunLanes(spec, flags)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// RunLanes trains the workload once and profiles that one training under
// every flag set: one agent and one set of environments do the arithmetic,
// and each flag set gets a profiler, device and CUDA context of its own — a
// backend lane. The clock is virtual and book-keeping draws its costs from
// a stream of its own, so lane i records exactly the trace Run(spec,
// flags[i]) does. The stats come back in flags' order.
func RunLanes(spec Spec, flags ...trace.FeatureFlags) ([]*calib.RunStats, error) {
	if spec.TotalSteps <= 0 {
		return nil, fmt.Errorf("workloads: TotalSteps must be positive")
	}
	if len(flags) == 0 {
		return nil, fmt.Errorf("workloads: no feature flags to run under")
	}
	profs := make([]*profiler.Profiler, len(flags))
	lanes := make([]backend.Lane, len(flags))
	for i, f := range flags {
		profs[i] = profiler.New(profiler.Options{
			Workload: spec.Name(),
			Flags:    f,
			Seed:     spec.Seed,
		})
		sess := profs[i].NewProcess("trainer", -1, 0)
		lanes[i] = backend.Lane{Sess: sess, Ctx: cuda.NewContext(sess, gpu.NewDevice(-1), cuda.DefaultCosts())}
	}
	b := backend.NewLanes(spec.Model, lanes)

	env, err := sim.New(spec.Env, spec.Seed+29)
	if err != nil {
		return nil, err
	}
	agent, err := newAgent(spec, b, env)
	if err != nil {
		return nil, err
	}

	// Vectorized environments: one batched inference serves every env's
	// step; simulator steps run serially in high-level code, as in
	// stable-baselines' VecEnv.
	nEnvs := agent.NumEnvs()
	envs := make([]sim.Env, nEnvs)
	envs[0] = env
	for e := 1; e < nEnvs; e++ {
		envs[e], err = sim.New(spec.Env, spec.Seed+29+int64(e))
		if err != nil {
			return nil, err
		}
	}

	for _, l := range lanes {
		l.Sess.SetPhase("training")
	}
	obs := make([][]float64, nEnvs)
	withOperation(b, OpSimulation, func() {
		for e := range envs {
			ev := envs[e]
			callSimulator(b, ev.Name()+".reset", ev.ResetCost(), func() {
				obs[e] = ev.Reset()
			})
		}
	})

	stepsDone := 0
	for stepsDone < spec.TotalSteps {
		segment := agent.CollectSteps()
		if rem := (spec.TotalSteps - stepsDone + nEnvs - 1) / nEnvs; segment > rem {
			segment = rem
		}
		// Data collection: tf-agents Autograph drives this loop
		// in-graph (paper F.5). The loop-entry tracing cost is part of
		// the data-collection stage, so it is charged inside a
		// simulation annotation — that is where the paper observes the
		// resulting Python-time inflation.
		withOperation(b, OpSimulation, b.AutographLoopEntry)
		for step := 0; step < segment; step++ {
			var acts [][]float64
			withOperation(b, OpInference, func() {
				acts = agent.ActBatch(obs)
			})
			next := make([][]float64, nEnvs)
			rewards := make([]float64, nEnvs)
			dones := make([]bool, nEnvs)
			withOperation(b, OpSimulation, func() {
				for e := range envs {
					ev := envs[e]
					// Per-step driver glue: action unboxing
					// and observation marshaling in
					// high-level code.
					b.Python(stepGlueCost)
					callSimulator(b, ev.Name()+".step", ev.StepCost(), func() {
						next[e], rewards[e], dones[e] = ev.Step(acts[e])
					})
					if dones[e] {
						callSimulator(b, ev.Name()+".reset", ev.ResetCost(), func() {
							next[e] = ev.Reset()
						})
					}
				}
			})
			for e := range envs {
				agent.Observe(e, rl.Transition{
					Obs: obs[e], Act: acts[e], Reward: rewards[e],
					Next: next[e], Done: dones[e],
				})
				obs[e] = next[e]
			}
		}
		stepsDone += segment * nEnvs

		for u, n := 0, agent.UpdatesPerCollect(); u < n; u++ {
			withOperation(b, OpBackpropagation, agent.Update)
		}
	}

	for _, l := range lanes {
		l.Sess.Close()
	}
	runs := make([]*calib.RunStats, len(flags))
	for i, p := range profs {
		tr, err := p.Trace()
		if err != nil {
			return nil, err
		}
		runs[i] = calib.StatsFromTrace(tr, flags[i], p.OverheadCounts(), p.TotalTime())
		if err := p.Release(); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// withOperation runs fn once inside an operation annotation on every lane.
func withOperation(b *backend.Backend, name string, fn func()) {
	b.Nest(func(l backend.Lane, inner func()) { l.Sess.WithOperation(name, inner) }, fn)
}

// callSimulator wraps one call into the simulator on every lane, each lane
// spending cost inside it; fn, the simulator's own arithmetic, runs once.
func callSimulator(b *backend.Backend, name string, cost vclock.Dist, fn func()) {
	b.Nest(func(l backend.Lane, inner func()) {
		l.Sess.CallSimulator(name, func() {
			l.Sess.Clock().Spend(cost)
			inner()
		})
	}, fn)
}

// Runner adapts a Spec into a calib.Runner: it re-seeds the spec per call,
// so calibration's determinism assumption holds, and trains it once for
// every flag set the call asks for (RunLanes).
func Runner(spec Spec) calib.Runner {
	return func(seed int64, flags ...trace.FeatureFlags) ([]*calib.RunStats, error) {
		s := spec
		s.Seed = seed
		return RunLanes(s, flags...)
	}
}
