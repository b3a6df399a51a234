package experiments

import (
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// Figure4Entry is one workload's profile: a bar group of Figures 4a–4d, 5
// or 7.
type Figure4Entry struct {
	Algo, Env string
	Model     backend.ExecModel
	Res       *overlap.Result
	Total     vclock.Duration
}

// Figure4Result holds the full framework-comparison study.
type Figure4Result struct {
	TD3  []Figure4Entry // Figure 4a/4c: 4 configurations
	DDPG []Figure4Entry // Figure 4b/4d: 3 configurations (no ReAgent DDPG, as in the paper)
}

// stages are the training-loop operations Figures 4, 5 and 7 break down.
var stages = []string{workloads.OpBackpropagation, workloads.OpInference, workloads.OpSimulation}

// td3Models lists Figure 4a's configurations in the paper's order.
var td3Models = []backend.ExecModel{
	backend.EagerPyTorch, backend.Autograph, backend.EagerTF, backend.Graph,
}

// ddpgModels lists Figure 4b's configurations.
var ddpgModels = []backend.ExecModel{
	backend.Autograph, backend.EagerTF, backend.Graph,
}

// Figure4 runs the framework comparison: identical algorithm (TD3/DDPG),
// simulator (Walker2D), and hyperparameters; only the RL framework's
// execution model and backend differ (paper §4.1). The seven configurations
// are independent replays, so they run concurrently on the analysis pool;
// each entry lands at its configuration's fixed slice position, keeping the
// result identical to a sequential sweep.
func Figure4(opts Options) (*Figure4Result, error) {
	steps := opts.steps(2000)
	out := &Figure4Result{
		TD3:  make([]Figure4Entry, len(td3Models)),
		DDPG: make([]Figure4Entry, len(ddpgModels)),
	}
	err := forEach(opts.ctx(), len(td3Models)+len(ddpgModels), func(i int) error {
		algo, models, dst := "TD3", td3Models, out.TD3
		if i >= len(td3Models) {
			algo, models, dst, i = "DDPG", ddpgModels, out.DDPG, i-len(td3Models)
		}
		var err error
		dst[i], err = profile(workloads.Spec{
			Algo: algo, Env: "Walker2D", Model: models[i],
			TotalSteps: steps, Seed: opts.Seed + 1,
		})
		if err != nil {
			return fmt.Errorf("experiments: figure 4 %s %v: %w", algo, models[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render renders Figures 4a–4d as text tables.
func (r *Figure4Result) Render() string {
	var sb strings.Builder
	section := func(title string, entries []Figure4Entry) {
		var rows []*report.Breakdown
		var trows []report.TransitionRow
		for _, e := range entries {
			label := e.Model.String()
			rows = append(rows, report.FromResult(label, e.Res, stages))
			trows = append(trows, report.Transitions(label, e.Res, stages)...)
		}
		sb.WriteString(report.Table(title+" — time breakdown", rows))
		sb.WriteString(report.TransitionTable(title+" — language transitions", trows))
	}
	section("Figure 4a/4c: (TD3, Walker2D)", r.TD3)
	section("Figure 4b/4d: (DDPG, Walker2D)", r.DDPG)
	return sb.String()
}

// Figure5Result holds the RL-algorithm survey (Figure 5).
type Figure5Result struct {
	Entries []Figure4Entry // Model is Graph for all
}

// figure5Algos lists the surveyed algorithms in the paper's order with
// their on/off-policy grouping.
var figure5Algos = []struct {
	Name     string
	OnPolicy bool
}{
	{"DDPG", false}, {"SAC", false}, {"A2C", true}, {"PPO2", true},
}

// Figure5 runs the algorithm survey: four algorithms on Walker2D under the
// stable-baselines (Graph) framework (paper §4.2). The surveyed algorithms
// replay concurrently on the analysis pool.
func Figure5(opts Options) (*Figure5Result, error) {
	steps := opts.steps(2000)
	out := &Figure5Result{Entries: make([]Figure4Entry, len(figure5Algos))}
	err := forEach(opts.ctx(), len(figure5Algos), func(i int) error {
		var err error
		out.Entries[i], err = profile(workloads.Spec{
			Algo: figure5Algos[i].Name, Env: "Walker2D", Model: backend.Graph,
			TotalSteps: steps, Seed: opts.Seed + 2,
		})
		if err != nil {
			return fmt.Errorf("experiments: figure 5 %s: %w", figure5Algos[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SimulationFraction returns simulation time / total time for one entry.
func (e *Figure4Entry) SimulationFraction() float64 {
	if e.Res.Total() == 0 {
		return 0
	}
	return e.Res.OpTotal(workloads.OpSimulation).Seconds() / e.Res.Total().Seconds()
}

// GPUFraction returns device-busy time / total time.
func (e *Figure4Entry) GPUFraction() float64 {
	if e.Res.Total() == 0 {
		return 0
	}
	return e.Res.TotalGPUTime().Seconds() / e.Res.Total().Seconds()
}

// Render renders Figure 5.
func (r *Figure5Result) Render() string {
	var rows []*report.Breakdown
	for i, e := range r.Entries {
		kind := "Off-policy"
		if figure5Algos[i].OnPolicy {
			kind = "On-policy"
		}
		rows = append(rows, report.FromResult(fmt.Sprintf("%s (%s)", e.Algo, kind), e.Res, stages))
	}
	return report.Table("Figure 5: algorithm choice (Walker2D, stable-baselines)", rows)
}
