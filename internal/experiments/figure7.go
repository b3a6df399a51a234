package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/minigo"
	"repro/internal/nvsmi"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// RenderFigure6 renders the simulator-complexity taxonomy (Figure 6).
func RenderFigure6() string {
	var sb strings.Builder
	sb.WriteString("== Figure 6: RL simulators by computational complexity ==\n")
	fmt.Fprintf(&sb, "%-14s %-28s %s\n", "simulator", "domain", "complexity")
	for _, s := range sim.Taxonomy() {
		fmt.Fprintf(&sb, "%-14s %-28s %s\n", s.Name, s.Domain, s.Complexity)
	}
	return sb.String()
}

// Figure7Result holds the simulator survey.
type Figure7Result struct {
	Entries []Figure4Entry
}

// Figure7 runs the simulator survey: the top-performing on-policy algorithm
// (PPO2, per the paper's appendix B.1) across environments spanning the
// complexity axis. The environments replay concurrently on the analysis
// pool.
func Figure7(opts Options) (*Figure7Result, error) {
	steps := opts.steps(1024)
	out := &Figure7Result{Entries: make([]Figure4Entry, len(sim.SurveyNames))}
	err := forEach(opts.ctx(), len(sim.SurveyNames), func(i int) error {
		env := sim.SurveyNames[i]
		envSteps := steps
		if env == "AirLearning" {
			// The high-complexity simulator is 200× slower per
			// step; a reduced budget keeps the harness fast while
			// the breakdown shape is unchanged.
			envSteps = steps / 4
		}
		var err error
		out.Entries[i], err = profile(workloads.Spec{
			Algo: "PPO2", Env: env, Model: backend.Graph,
			TotalSteps: envSteps, Seed: opts.Seed + 3,
		})
		if err != nil {
			return fmt.Errorf("experiments: figure 7 %s: %w", env, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render renders Figure 7.
func (r *Figure7Result) Render() string {
	var rows []*report.Breakdown
	for _, e := range r.Entries {
		rows = append(rows, report.FromResult(e.Env, e.Res, stages))
	}
	return report.Table("Figure 7: simulator choice (PPO2)", rows)
}

// Figure8Result holds the Minigo scale-up study.
type Figure8Result struct {
	Minigo *minigo.Result
	// SampledUtil is what an nvidia-smi-style monitor reports over the
	// self-play phase; TrueUtil is the honest duty cycle.
	SampledUtil, TrueUtil float64
	// MaxWorkerTotal and its GPU time are Figure 8's headline bars
	// (paper: 5080 s total vs 20 s GPU).
	MaxWorkerTotal, MaxWorkerGPU vclock.Duration
}

// Figure8 runs the Minigo pipeline with the paper's 16 self-play workers
// and contrasts RL-Scope's per-worker GPU execution time against sampled
// GPU utilization (paper §4.3, Appendix B.2).
func Figure8(opts Options) (*Figure8Result, error) {
	cfg := minigo.DefaultConfig()
	cfg.Seed = opts.Seed + 4
	if opts.Steps > 0 && opts.Steps < 500 {
		// Scale the pipeline down for constrained runs.
		cfg.Workers = 8
		cfg.MaxMovesPerGame = 20
		cfg.SimsPerMove = 16
	}
	res, err := minigo.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 8: %w", err)
	}
	// Sample-period scaling: the paper's 1/6 s period is ~1/30000 of its
	// hours-long runs; here the period is span/40, preserving the
	// "short kernel marks the whole period active" mechanism.
	period := vclock.Duration(res.SpanEnd-res.SpanStart) / 40
	rep := nvsmi.Sample(res.Busy, res.SpanStart, res.SpanEnd, period)
	out := &Figure8Result{
		Minigo:      res,
		SampledUtil: rep.Utilization(),
		TrueUtil:    rep.TrueUtilization(),
	}
	for proc, total := range res.WorkerTotal {
		if total > out.MaxWorkerTotal {
			out.MaxWorkerTotal = total
			out.MaxWorkerGPU = res.WorkerGPU[proc]
		}
	}
	return out, nil
}

// Render renders Figure 8 as text.
func (r *Figure8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("== Figure 8: Minigo multi-process view ==\n")
	sb.WriteString(report.ProcessTree(r.Minigo.Trace, analysis.Run(r.Minigo.Trace, analysis.Options{})))
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-22s %-12s %-12s %s\n", "process", "total", "GPU", "GPU%")
	for _, p := range r.Minigo.Trace.ProcIDs() {
		info := r.Minigo.Trace.Meta.Procs[p]
		if info.Parent < 0 {
			continue
		}
		total := r.Minigo.WorkerTotal[p]
		gpuT := r.Minigo.WorkerGPU[p]
		fmt.Fprintf(&sb, "%-22s %-12s %-12s %.2f%%\n",
			info.Name, total, gpuT, 100*gpuT.Seconds()/total.Seconds())
	}
	fmt.Fprintf(&sb, "\nnvidia-smi sampled utilization: %.0f%%\n", 100*r.SampledUtil)
	fmt.Fprintf(&sb, "true GPU duty cycle:            %.2f%%\n", 100*r.TrueUtil)
	fmt.Fprintf(&sb, "paper: workers ≤5080 s total, ~20 s GPU; nvidia-smi reads 100%%\n\n")
	// Per-process training phases (selfplay / sgd_updates / evaluation).
	names := map[trace.ProcID]string{}
	for p, info := range r.Minigo.Trace.Meta.Procs {
		names[p] = info.Name
	}
	sb.WriteString(report.PhaseTable("Minigo training phases", overlap.PhasesByProc(r.Minigo.Trace), names))
	return sb.String()
}
