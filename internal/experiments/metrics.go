package experiments

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// This file exposes every experiment as a structured metric bundle — a flat
// name → scalar map computed at one ⟨experiment, steps, seed⟩ grid cell —
// so the hypothesis harness (internal/hypothesis) can evaluate the paper's
// findings F.1–F.12 and the repo's own scaling claims declaratively instead
// of through hand-written test assertions. All bundles except the two
// timing ones (sweepscale, servecache) measure the simulated clock and are
// byte-deterministic per cell.

// MetricExperiments lists the bundle ids Metrics accepts.
var MetricExperiments = []string{
	"table1", "fig3", "fig4", "fig5", "fig7", "fig8",
	"scaling", "stream", "seedrepro", "sweepscale", "multihost",
	"servecache", "ingest", "formatv2", "fleet",
}

// Metrics computes the named experiment's metric bundle. The bundle names
// are stable: the committed hypothesis grid references them.
func Metrics(ctx context.Context, experiment string, steps int, seed int64) (map[string]float64, error) {
	opts := Options{Steps: steps, Seed: seed, Context: ctx}
	switch experiment {
	case "table1":
		return table1Metrics(), nil
	case "fig3":
		return fig3Metrics(), nil
	case "fig4":
		return fig4Metrics(opts)
	case "fig5":
		return fig5Metrics(opts)
	case "fig7":
		return fig7Metrics(opts)
	case "fig8":
		return fig8Metrics(opts)
	case "scaling":
		return scalingMetrics(opts)
	case "stream":
		return streamMetrics(opts)
	case "seedrepro":
		return seedReproMetrics(opts)
	case "sweepscale":
		return sweepScaleMetrics(opts)
	case "multihost":
		return multihostMetrics(opts)
	case "servecache":
		return serveCacheMetrics(opts)
	case "ingest":
		return ingestMetrics(opts)
	case "formatv2":
		return formatv2Metrics(opts)
	case "fleet":
		return fleetMetrics(opts)
	}
	return nil, fmt.Errorf("experiments: unknown metric experiment %q (have %s)",
		experiment, strings.Join(MetricExperiments, ","))
}

// modelKey is the stable short name metric bundles use for an execution
// model.
func modelKey(m backend.ExecModel) string {
	switch m {
	case backend.Graph:
		return "graph"
	case backend.Autograph:
		return "autograph"
	case backend.EagerTF:
		return "eager_tf"
	case backend.EagerPyTorch:
		return "eager_pt"
	}
	return "unknown"
}

func table1Metrics() map[string]float64 {
	rows := Table1()
	want := map[string]string{
		"stable-baselines": "TensorFlow 2.2.0",
		"ReAgent":          "PyTorch 1.6.0",
	}
	match := 1.0
	for _, r := range rows {
		if b, ok := want[r.Framework]; ok && r.Backend != b {
			match = 0
		}
	}
	rendered := 0.0
	if RenderTable1() != "" {
		rendered = 1
	}
	return map[string]float64{
		"rows":          float64(len(rows)),
		"backend_match": match,
		"rendered":      rendered,
	}
}

func fig3Metrics() map[string]float64 {
	r := Figure3()
	ms := func(d vclock.Duration) float64 { return float64(d) / float64(vclock.Millisecond) }
	return map[string]float64{
		"cpu_mcts_ms":       ms(r.CPUMcts),
		"cpu_expand_ms":     ms(r.CPUExpand),
		"overlap_expand_ms": ms(r.OverlapExpand),
	}
}

// pythonInfBp is F.2's metric: Python CPU time inside inference and
// backpropagation.
func pythonInfBp(res *overlap.Result) float64 {
	return (res.CategoryCPUTime(workloads.OpInference, trace.CatPython) +
		res.CategoryCPUTime(workloads.OpBackpropagation, trace.CatPython)).Seconds()
}

func fig4Metrics(opts Options) (map[string]float64, error) {
	r, err := Figure4(opts)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	var cudaRatios []float64
	gpuMin, gpuMax := 1.0, 0.0
	forEntry := func(e *Figure4Entry) {
		key := e.Algo + "/" + modelKey(e.Model)
		m["total/"+key] = e.Total.Seconds()
		m["python_infbp/"+key] = pythonInfBp(e.Res)
		m["simpy/"+key] = e.Res.CategoryCPUTime(workloads.OpSimulation, trace.CatPython).Seconds()
		m["backprop/"+key] = e.Res.OpTotal(workloads.OpBackpropagation).Seconds()
		m["inf_backend/"+key] = e.Res.CategoryCPUTime(workloads.OpInference, trace.CatBackend).Seconds()
		m["trans_pb/"+key] = float64(e.Res.TotalTransitions(trace.TransPythonToBackend))
		m["trans_pb_inf/"+key] = float64(e.Res.TransitionCount(workloads.OpInference, trace.TransPythonToBackend))
		m["trans_pb_bp/"+key] = float64(e.Res.TransitionCount(workloads.OpBackpropagation, trace.TransPythonToBackend))
		frac := e.GPUFraction()
		m["gpufrac/"+key] = frac
		if frac < gpuMin {
			gpuMin = frac
		}
		if frac > gpuMax {
			gpuMax = frac
		}
		var cudaTime, gpuTime vclock.Duration
		for _, op := range e.Res.OpNames() {
			cudaTime += e.Res.CategoryCPUTime(op, trace.CatCUDA)
			gpuTime += e.Res.GPUTime(op)
		}
		if gpuTime > 0 {
			cudaRatios = append(cudaRatios, cudaTime.Seconds()/gpuTime.Seconds())
		}
	}
	for i := range r.TD3 {
		forEntry(&r.TD3[i])
	}
	for i := range r.DDPG {
		forEntry(&r.DDPG[i])
	}
	m["gpufrac/min"], m["gpufrac/max"] = gpuMin, gpuMax
	cudaMin, cudaSum := 0.0, 0.0
	for i, x := range cudaRatios {
		if i == 0 || x < cudaMin {
			cudaMin = x
		}
		cudaSum += x
	}
	if n := len(cudaRatios); n > 0 {
		m["cuda_gpu/avg"] = cudaSum / float64(n)
		m["cuda_gpu/min"] = cudaMin
	}
	m["bp_ratio/TD3"] = m["backprop/TD3/graph"] / m["backprop/TD3/autograph"]
	m["bp_ratio/DDPG"] = m["backprop/DDPG/graph"] / m["backprop/DDPG/autograph"]

	// The paper's F.5 confirmation run: DDPG's consecutive-simulator-steps
	// hyperparameter raised to TD3's 1000, removing the Autograph
	// loop-entry inflation.
	res, _, err := runUninstrumented(workloads.Spec{
		Algo: "DDPG", Env: "Walker2D", Model: backend.Autograph,
		TotalSteps: opts.steps(2000), Seed: opts.Seed + 1, CollectStepsOverride: 1000,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4 metrics (DDPG@1000): %w", err)
	}
	m["simpy_fixed/DDPG"] = res.CategoryCPUTime(workloads.OpSimulation, trace.CatPython).Seconds()
	return m, nil
}

func fig5Metrics(opts Options) (map[string]float64, error) {
	r, err := Figure5(opts)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	minOn, maxOff := 1.0, 0.0
	opGPUMax, cpuShareMin := 0.0, 1.0
	for _, a := range figure5Algos {
		e := r.Entry(a.Name)
		frac := e.SimulationFraction()
		m["simfrac/"+a.Name] = frac
		if a.OnPolicy && frac < minOn {
			minOn = frac
		}
		if !a.OnPolicy && frac > maxOff {
			maxOff = frac
		}
		for _, op := range []string{workloads.OpInference, workloads.OpBackpropagation} {
			if total := e.Res.OpTotal(op); total > 0 {
				if share := e.Res.GPUTime(op).Seconds() / total.Seconds(); share > opGPUMax {
					opGPUMax = share
				}
			}
		}
		if cpu := 1 - e.GPUFraction(); cpu < cpuShareMin {
			cpuShareMin = cpu
		}
	}
	m["simfrac_on/min"] = minOn
	m["simfrac_off/max"] = maxOff
	m["op_gpu_share/max"] = opGPUMax
	m["cpu_share/min"] = cpuShareMin
	return m, nil
}

func fig7Metrics(opts Options) (map[string]float64, error) {
	r, err := Figure7(opts)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	lowMedSimMin, lowMedGPUMax := 1.0, 0.0
	mujocoMax := 0.0
	for i := range r.Entries {
		e := &r.Entries[i]
		frac := e.SimulationFraction()
		m["simfrac/"+e.Env] = frac
		if e.Env == "AirLearning" {
			continue
		}
		if frac < lowMedSimMin {
			lowMedSimMin = frac
		}
		if g := e.GPUFraction(); g > lowMedGPUMax {
			lowMedGPUMax = g
		}
		switch e.Env {
		case "Hopper", "HalfCheetah", "Walker2D":
			if frac > mujocoMax {
				mujocoMax = frac
			}
		}
	}
	m["simfrac_lowmed/min"] = lowMedSimMin
	m["gpufrac_lowmed/max"] = lowMedGPUMax
	m["simfrac_mujoco/max"] = mujocoMax
	return m, nil
}

func fig8Metrics(opts Options) (map[string]float64, error) {
	r, err := Figure8(opts)
	if err != nil {
		return nil, err
	}
	workerGPUFrac := 0.0
	if r.MaxWorkerTotal > 0 {
		workerGPUFrac = r.MaxWorkerGPU.Seconds() / r.MaxWorkerTotal.Seconds()
	}
	return map[string]float64{
		"sampled_util":    r.SampledUtil,
		"true_util":       r.TrueUtil,
		"worker_gpu_frac": workerGPUFrac,
	}, nil
}

func scalingMetrics(opts Options) (map[string]float64, error) {
	r, err := Figure8Scaling(opts)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, pt := range r.Points {
		m[fmt.Sprintf("sampled_util/%d", pt.Workers)] = pt.SampledUtil
		m[fmt.Sprintf("worker_gpu_frac/%d", pt.Workers)] = pt.WorkerGPUFrac
	}
	return m, nil
}

func streamMetrics(opts Options) (map[string]float64, error) {
	r, err := StreamReplay(opts)
	if err != nil {
		return nil, err
	}
	identical := 0.0
	if r.Identical {
		identical = 1
	}
	return map[string]float64{
		"identical":              identical,
		"peak_over_budget":       float64(r.Stats.PeakResidentBytes) / float64(r.MaxResidentBytes),
		"peak_over_materialized": float64(r.Stats.PeakResidentBytes) / float64(r.MaterializedBytes),
	}, nil
}

// seedReproMetrics checks the determinism foundation the statistical
// machinery rests on: a workload replayed at the same seed writes a
// byte-identical trace directory (same DirDigest), and a different seed
// does not.
func seedReproMetrics(opts Options) (map[string]float64, error) {
	steps := opts.steps(300)
	digest := func(seed int64) (string, error) {
		tr, err := walkerRun(steps, seed, trace.Uninstrumented())
		if err != nil {
			return "", err
		}
		dir, err := os.MkdirTemp("", "rlscope-hyp-seedrepro-")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		if err := writeTraceDir(dir, tr); err != nil {
			return "", err
		}
		return trace.DirDigest(dir)
	}
	a, err := digest(opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: seedrepro: %w", err)
	}
	b, err := digest(opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: seedrepro: %w", err)
	}
	c, err := digest(opts.Seed + 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: seedrepro: %w", err)
	}
	return map[string]float64{
		"same_seed_identical": boolMetric(a == b),
		"diff_seed_differs":   boolMetric(a != c),
	}, nil
}

// sweepScaleMetrics measures the incremental overlap sweep's scaling shape
// (PR 3's claim): doubling a deep-nesting trace should roughly double the
// sweep's wall time (O(n log n)), where the retained O(n·depth) reference
// implementation would quadruple it. Host wall-clock time — a timing
// bundle.
func sweepScaleMetrics(opts Options) (map[string]float64, error) {
	n := opts.steps(6000)
	if n < 2000 {
		n = 2000
	}
	small := sweepStressEvents(n, 80)
	large := sweepStressEvents(2*n, 80)
	tSmall, err := minSweepTime(opts.ctx(), small)
	if err != nil {
		return nil, err
	}
	tLarge, err := minSweepTime(opts.ctx(), large)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"t2n_over_tn": tLarge.Seconds() / tSmall.Seconds(),
	}, nil
}

// sweepStressEvents builds the deep-nesting stress trace (pyramids of
// nested CPU/op events with staggered GPU activity — the regime where the
// pre-incremental sweep was quadratic in depth).
func sweepStressEvents(total, depth int) []trace.Event {
	cpuCats := []trace.Category{
		trace.CatPython, trace.CatSimulator, trace.CatBackend, trace.CatCUDA,
	}
	perPyramid := depth + depth/2 + depth/2
	pyramids := total / perPyramid
	if pyramids < 1 {
		pyramids = 1
	}
	width := vclock.Time(4 * depth)
	var events []trace.Event
	for p := 0; p < pyramids; p++ {
		base := vclock.Time(p) * width
		for j := 0; j < depth; j++ {
			events = append(events, trace.Event{
				Kind: trace.KindCPU, Cat: cpuCats[j%len(cpuCats)],
				Start: base + vclock.Time(j), End: base + width - vclock.Time(j),
				Name: "cpu",
			})
		}
		for j := 0; j < depth/2; j++ {
			events = append(events, trace.Event{
				Kind:  trace.KindOp,
				Start: base + vclock.Time(2*j), End: base + width - vclock.Time(2*j),
				Name: "op",
			})
		}
		for j := 0; j < depth/2; j++ {
			cat := trace.CatGPUKernel
			if j%2 == 1 {
				cat = trace.CatGPUMemcpy
			}
			events = append(events, trace.Event{
				Kind: trace.KindGPU, Cat: cat,
				Start: base + vclock.Time(j), End: base + width/2 + vclock.Time(j),
				Name: "k",
			})
		}
	}
	return events
}

// minSweepTime returns the minimum wall time of the incremental sweep over
// several repetitions — min-of-K, to shed scheduler noise.
func minSweepTime(ctx context.Context, events []trace.Event) (time.Duration, error) {
	const reps = 5
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		start := time.Now()
		res := overlap.Compute(events)
		elapsed := time.Since(start)
		if len(res.ByKey) == 0 {
			return 0, fmt.Errorf("experiments: sweepscale: empty sweep result")
		}
		if i == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}
