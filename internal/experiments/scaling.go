package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/minigo"
	"repro/internal/nvsmi"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ScalingPoint is one worker-count configuration of the scale-up extension
// study.
type ScalingPoint struct {
	Workers int
	// SampledUtil is the nvidia-smi-style reading; TrueUtil the honest
	// duty cycle; WorkerGPUFrac the per-worker GPU share of runtime.
	SampledUtil, TrueUtil, WorkerGPUFrac float64
	// Span is the self-play phase extent.
	Span vclock.Duration
}

// ScalingResult holds the Minigo worker-scaling sweep.
type ScalingResult struct {
	Points []ScalingPoint
}

// Figure8Scaling extends the paper's scale-up case study along the axis its
// F.11 discussion names: "Scaling-up by running more workers can exacerbate
// this issue." It sweeps the self-play pool size and reports how sampled
// utilization saturates toward 100% while per-worker GPU usage stays flat —
// i.e. adding workers inflates the *metric* without making any worker more
// GPU-bound.
func Figure8Scaling(opts Options) (*ScalingResult, error) {
	poolSizes := []int{1, 2, 4, 8, 16}
	out := &ScalingResult{Points: make([]ScalingPoint, len(poolSizes))}
	// Each pool size is an independent Minigo pipeline run; the sweep's
	// configurations replay concurrently on the analysis pool.
	err := forEach(opts.ctx(), len(poolSizes), func(i int) error {
		workers := poolSizes[i]
		cfg := minigo.DefaultConfig()
		cfg.Seed = opts.Seed + 6
		cfg.Workers = workers
		cfg.MaxMovesPerGame = 20
		cfg.SimsPerMove = 16
		res, err := minigo.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: figure 8 scaling (%d workers): %w", workers, err)
		}
		period := vclock.Duration(res.SpanEnd-res.SpanStart) / 40
		rep := nvsmi.Sample(res.Busy, res.SpanStart, res.SpanEnd, period)
		// Sum in sorted process order: float addition is not
		// associative, so map-iteration order would make the fraction
		// differ in the last bits between runs.
		procs := make([]trace.ProcID, 0, len(res.WorkerTotal))
		for proc := range res.WorkerTotal {
			procs = append(procs, proc)
		}
		sort.Slice(procs, func(a, b int) bool { return procs[a] < procs[b] })
		var gpuFrac float64
		n := 0
		for _, proc := range procs {
			if total := res.WorkerTotal[proc]; total > 0 {
				gpuFrac += res.WorkerGPU[proc].Seconds() / total.Seconds()
				n++
			}
		}
		if n > 0 {
			gpuFrac /= float64(n)
		}
		out.Points[i] = ScalingPoint{
			Workers:       workers,
			SampledUtil:   rep.Utilization(),
			TrueUtil:      rep.TrueUtilization(),
			WorkerGPUFrac: gpuFrac,
			Span:          vclock.Duration(res.SpanEnd - res.SpanStart),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render renders the scaling sweep.
func (r *ScalingResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== Extension: Minigo self-play pool scaling (paper F.11's \"scaling-up exacerbates this issue\") ==\n")
	fmt.Fprintf(&sb, "%-9s %-14s %-12s %-12s %s\n",
		"workers", "nvidia-smi", "true util", "GPU/worker", "selfplay span")
	for _, pt := range r.Points {
		fmt.Fprintf(&sb, "%-9d %-14s %-12s %-12s %v\n",
			pt.Workers,
			fmt.Sprintf("%.0f%%", 100*pt.SampledUtil),
			fmt.Sprintf("%.2f%%", 100*pt.TrueUtil),
			fmt.Sprintf("%.2f%%", 100*pt.WorkerGPUFrac),
			pt.Span)
	}
	sb.WriteString("sampled utilization saturates with pool size while no worker gets more GPU-bound\n")
	return sb.String()
}
