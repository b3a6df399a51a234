package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// calibSpec is the reference workload for the calibration illustrations.
func calibSpec(opts Options) workloads.Spec {
	return workloads.Spec{
		Algo: "DDPG", Env: "Walker2D", Model: backend.Graph,
		TotalSteps: opts.steps(400), Seed: opts.Seed + 5,
	}
}

// Figure9Result holds the delta-calibration illustration: enabling one
// book-keeping path (the CUDA API interception hook) and dividing the
// runtime delta by the occurrence count.
type Figure9Result struct {
	BaseTotal, HookTotal vclock.Duration
	Count                int
	MeanOverhead         vclock.Duration
}

// Figure9 reproduces the delta-calibration example (paper Figure 9 /
// Appendix C.1). The two feature-flag replays are independent and run
// concurrently.
func Figure9(opts Options) (*Figure9Result, error) {
	run := workloads.Runner(calibSpec(opts))
	base, hooked, err := runPair(opts.ctx(),
		func() (*calib.RunStats, error) { return run(trace.Uninstrumented(), opts.Seed+11) },
		func() (*calib.RunStats, error) { return run(trace.FeatureFlags{CUDAIntercept: true}, opts.Seed+11) },
	)
	if err != nil {
		return nil, err
	}
	return &Figure9Result{
		BaseTotal: base.Total, HookTotal: hooked.Total,
		Count:        hooked.OverheadCounts[trace.OverheadCUDAIntercept],
		MeanOverhead: calib.DeltaMean(base, hooked, trace.OverheadCUDAIntercept),
	}, nil
}

// Render renders Figure 9.
func (r *Figure9Result) Render() string {
	var sb strings.Builder
	sb.WriteString("== Figure 9: delta calibration of CUDA API interception ==\n")
	fmt.Fprintf(&sb, "interception disabled: total = %v\n", r.BaseTotal)
	fmt.Fprintf(&sb, "interception enabled:  total = %v\n", r.HookTotal)
	fmt.Fprintf(&sb, "Δ = %v over %d CUDA API calls → mean overhead %v/call\n",
		r.HookTotal-r.BaseTotal, r.Count, r.MeanOverhead)
	return sb.String()
}

// Figure10Row is one API's difference-of-average calibration.
type Figure10Row struct {
	API              string
	MeanWithoutCUPTI vclock.Duration
	MeanWithCUPTI    vclock.Duration
	InflationPerCall vclock.Duration
}

// Figure10Result holds the difference-of-average illustration.
type Figure10Result struct {
	Rows []Figure10Row
}

// Figure10 reproduces the difference-of-average calibration example (paper
// Figure 10 / Appendix C.2): CUPTI inflates each CUDA API by a different
// amount, measured as the difference of per-API mean durations with and
// without CUPTI enabled.
func Figure10(opts Options) (*Figure10Result, error) {
	run := workloads.Runner(calibSpec(opts))
	without, with, err := runPair(opts.ctx(),
		func() (*calib.RunStats, error) { return run(trace.FeatureFlags{CUDAIntercept: true}, opts.Seed+13) },
		func() (*calib.RunStats, error) {
			return run(trace.FeatureFlags{CUDAIntercept: true, CUPTI: true}, opts.Seed+13)
		},
	)
	if err != nil {
		return nil, err
	}
	out := &Figure10Result{}
	var apis []string
	for api := range with.APICount {
		apis = append(apis, api)
	}
	sort.Strings(apis)
	for _, api := range apis {
		out.Rows = append(out.Rows, Figure10Row{
			API:              api,
			MeanWithoutCUPTI: without.APIMean(api),
			MeanWithCUPTI:    with.APIMean(api),
			InflationPerCall: calib.APIInflation(without, with, api),
		})
	}
	return out, nil
}

// Render renders Figure 10.
func (r *Figure10Result) Render() string {
	var sb strings.Builder
	sb.WriteString("== Figure 10: difference-of-average calibration of CUPTI inflation ==\n")
	fmt.Fprintf(&sb, "%-24s %-14s %-14s %s\n", "CUDA API", "mean w/o CUPTI", "mean w/ CUPTI", "inflation/call")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-24s %-14s %-14s %s\n",
			row.API, row.MeanWithoutCUPTI, row.MeanWithCUPTI, row.InflationPerCall)
	}
	sb.WriteString("paper example: cudaLaunchKernel ≈3 µs/call, cudaMemcpyAsync ≈1 µs/call\n")
	return sb.String()
}

// Figure11Result holds the overhead-correction validation across workloads.
type Figure11Result struct {
	// ByAlgorithm (Figure 11a): PPO2, A2C, SAC, DDPG on Walker2D.
	ByAlgorithm []*calib.ValidationResult
	// BySimulator (Figure 11b): PPO2 on Hopper, Ant, HalfCheetah, Pong.
	BySimulator []*calib.ValidationResult
}

// Figure11 validates overhead correction: for each workload, calibrate,
// run uninstrumented and fully instrumented, correct, and compare (paper
// Figure 11 / Appendix C.3; the paper reports |bias| ≤ 16%). The eight
// workload validations — each a full calibrate/run/correct cycle — are the
// most expensive harness in the repo and run concurrently on the pool.
func Figure11(opts Options) (*Figure11Result, error) {
	steps := opts.steps(400)
	algos := []string{"PPO2", "A2C", "SAC", "DDPG"}
	envs := []string{"Hopper", "Ant", "HalfCheetah", "Pong"}
	out := &Figure11Result{
		ByAlgorithm: make([]*calib.ValidationResult, len(algos)),
		BySimulator: make([]*calib.ValidationResult, len(envs)),
	}
	validate := func(algo, env string) (*calib.ValidationResult, error) {
		spec := workloads.Spec{
			Algo: algo, Env: env, Model: backend.Graph, TotalSteps: steps,
		}
		return calib.Validate(fmt.Sprintf("(%s, %s)", algo, env),
			workloads.Runner(spec), opts.Seed+17, opts.Seed+1017)
	}
	err := forEach(opts.ctx(), len(algos)+len(envs), func(i int) error {
		if i < len(algos) {
			v, err := validate(algos[i], "Walker2D")
			if err != nil {
				return fmt.Errorf("experiments: figure 11a %s: %w", algos[i], err)
			}
			out.ByAlgorithm[i] = v
			return nil
		}
		env := envs[i-len(algos)]
		v, err := validate("PPO2", env)
		if err != nil {
			return fmt.Errorf("experiments: figure 11b %s: %w", env, err)
		}
		out.BySimulator[i-len(algos)] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render renders Figure 11.
func (r *Figure11Result) Render() string {
	var sb strings.Builder
	section := func(title string, vs []*calib.ValidationResult) {
		fmt.Fprintf(&sb, "== %s ==\n", title)
		fmt.Fprintf(&sb, "%-24s %-12s %-12s %-12s %-8s %s\n",
			"workload", "uninstr.", "instr.", "corrected", "bias", "raw inflation")
		for _, v := range vs {
			fmt.Fprintf(&sb, "%-24s %-12s %-12s %-12s %+.1f%%  %.2fx\n",
				v.Workload, v.Uninstrumented, v.Instrumented, v.Corrected,
				100*v.Bias(), v.RawInflation())
		}
	}
	section("Figure 11a: correction validation by algorithm (Walker2D)", r.ByAlgorithm)
	section("Figure 11b: correction validation by simulator (PPO2)", r.BySimulator)
	sb.WriteString("paper: corrected bias within ±16%; raw inflation 1.6–2.2x\n")
	return sb.String()
}

// C4Result quantifies what skipping overhead correction would do to the
// paper's analyses (Appendix C.4).
type C4Result struct {
	// CUDAToGPURatioCorrected and ...Uncorrected compare the paper's F.8
	// metric (CPU-side CUDA API time : GPU kernel time) with and without
	// correction. The paper reports 3.6× corrected vs 5.7× uncorrected.
	CUDAToGPURatioCorrected, CUDAToGPURatioUncorrected float64
	// TotalInflation is instrumented/uninstrumented total runtime (paper:
	// 1.6–2.2×).
	TotalInflation float64
	// Corrected/Uncorrected backend time per operation for the
	// bottleneck-shift check (TF Eager DDPG: inference vs
	// backpropagation).
	BackendInferenceCorrected, BackendBackpropCorrected     vclock.Duration
	BackendInferenceUncorrected, BackendBackpropUncorrected vclock.Duration
}

// AppendixC4 re-runs the TF Eager DDPG workload with full instrumentation
// and compares corrected against uncorrected analyses.
func AppendixC4(opts Options) (*C4Result, error) {
	spec := workloads.Spec{
		Algo: "DDPG", Env: "Walker2D", Model: backend.EagerTF,
		TotalSteps: opts.steps(300),
	}
	runner := workloads.Runner(spec)
	cal, err := calib.Calibrate(runner, opts.Seed+23)
	if err != nil {
		return nil, err
	}
	// The uninstrumented and fully instrumented validation replays are
	// independent and run concurrently.
	base, full, err := runPair(opts.ctx(),
		func() (*calib.RunStats, error) { return runner(trace.Uninstrumented(), opts.Seed+1023) },
		func() (*calib.RunStats, error) { return runner(trace.Full(), opts.Seed+1023) },
	)
	if err != nil {
		return nil, err
	}
	corrected := analyzeMain(calib.Correct(full.Trace, cal))
	uncorrected := analyzeMain(full.Trace)

	ratioCorrected, _ := cudaGPURatio(corrected)
	ratioUncorrected, _ := cudaGPURatio(uncorrected)
	return &C4Result{
		CUDAToGPURatioCorrected:     ratioCorrected,
		CUDAToGPURatioUncorrected:   ratioUncorrected,
		TotalInflation:              float64(full.Total) / float64(base.Total),
		BackendInferenceCorrected:   corrected.CategoryCPUTime(workloads.OpInference, trace.CatBackend),
		BackendBackpropCorrected:    corrected.CategoryCPUTime(workloads.OpBackpropagation, trace.CatBackend),
		BackendInferenceUncorrected: uncorrected.CategoryCPUTime(workloads.OpInference, trace.CatBackend),
		BackendBackpropUncorrected:  uncorrected.CategoryCPUTime(workloads.OpBackpropagation, trace.CatBackend),
	}, nil
}

// cudaGPURatio is F.8's metric, CPU-side CUDA API time over GPU kernel time;
// false when res has no GPU time.
func cudaGPURatio(res *overlap.Result) (float64, bool) {
	var cudaTime, gpuTime vclock.Duration
	for _, op := range res.OpNames() {
		cudaTime += res.CategoryCPUTime(op, trace.CatCUDA)
		gpuTime += res.GPUTime(op)
	}
	if gpuTime == 0 {
		return 0, false
	}
	return cudaTime.Seconds() / gpuTime.Seconds(), true
}

// Render renders the Appendix C.4 comparison.
func (r *C4Result) Render() string {
	var sb strings.Builder
	sb.WriteString("== Appendix C.4: effect of skipping overhead correction (TF Eager DDPG) ==\n")
	fmt.Fprintf(&sb, "CUDA-API : GPU-kernel time ratio  corrected=%.1fx  uncorrected=%.1fx (paper: 3.6x → 5.7x)\n",
		r.CUDAToGPURatioCorrected, r.CUDAToGPURatioUncorrected)
	fmt.Fprintf(&sb, "total training-time inflation     %.2fx (paper: 1.6–2.2x)\n", r.TotalInflation)
	fmt.Fprintf(&sb, "Backend time, corrected:   inference=%v backprop=%v\n",
		r.BackendInferenceCorrected, r.BackendBackpropCorrected)
	fmt.Fprintf(&sb, "Backend time, uncorrected: inference=%v backprop=%v\n",
		r.BackendInferenceUncorrected, r.BackendBackpropUncorrected)
	return sb.String()
}
