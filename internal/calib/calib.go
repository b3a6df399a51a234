// Package calib implements RL-Scope's profiling-overhead calibration and
// correction (paper §3.4 and Appendix C).
//
// Profilers inflate CPU-side time with book-keeping code on the critical
// path — the paper observes up to 90.2% inflation, and up to 1.9× total
// training-time inflation for RL workloads. RL-Scope calibrates the average
// duration of each book-keeping code path by profiling one seed of the
// workload under different feature subsets, then — during offline analysis —
// subtracts that time at the precise points where book-keeping occurred.
// The paper re-runs the workload per subset; a Runner on this reproduction's
// virtual clock trains it once and profiles that training under every
// subset (workloads.RunLanes, DESIGN §2).
//
// Two calibration strategies are needed:
//
//   - Delta calibration (Appendix C.1): for book-keeping whose cost does not
//     depend on call context (annotation recording, Python↔C interception,
//     the CUDA API hook), mean cost = Δ(total runtime with feature on vs
//     off) / (occurrence count).
//   - Difference-of-average calibration (Appendix C.2): CUPTI inflation
//     happens inside the closed-source CUDA library and differs per API, and
//     cannot be toggled per API. So we measure the mean duration of each
//     CUDA API with and without CUPTI enabled; the per-API difference of
//     those averages is the per-call overhead.
package calib

import (
	"fmt"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// RunStats is what one profiled (or unprofiled) run exposes to calibration:
// exactly the information the real system could obtain (total runtime,
// book-keeping occurrence counts, per-CUDA-API durations measured under
// interception), plus the trace for downstream analysis.
type RunStats struct {
	// Flags is the feature subset the run used.
	Flags trace.FeatureFlags
	// Total is the run's total training time.
	Total vclock.Duration
	// OverheadCounts is occurrences per book-keeping kind.
	OverheadCounts map[trace.OverheadKind]int
	// APICount and APIDur give per-CUDA-API call counts and total
	// CPU-side durations (only meaningful when CUDAIntercept was on).
	APICount map[string]int
	APIDur   map[string]vclock.Duration
	// Trace is the collected event trace.
	Trace *trace.Trace
}

// APIMean returns the mean duration of one CUDA API in this run.
func (r *RunStats) APIMean(api string) vclock.Duration {
	n := r.APICount[api]
	if n == 0 {
		return 0
	}
	return r.APIDur[api] / vclock.Duration(n)
}

// StatsFromTrace derives RunStats from a collected trace plus the profiler's
// occurrence counters.
func StatsFromTrace(t *trace.Trace, flags trace.FeatureFlags, counts map[trace.OverheadKind]int, total vclock.Duration) *RunStats {
	rs := &RunStats{
		Flags:          flags,
		Total:          total,
		OverheadCounts: counts,
		APICount:       map[string]int{},
		APIDur:         map[string]vclock.Duration{},
		Trace:          t,
	}
	for _, e := range t.Events {
		if e.Kind == trace.KindCPU && e.Cat == trace.CatCUDA {
			rs.APICount[e.Name]++
			rs.APIDur[e.Name] += e.Duration()
		}
	}
	return rs
}

// Runner trains the workload once with the given seed and returns one run's
// stats per feature subset, in flags' order: a run profiled under flags[i]
// alone would give the same stats as element i. Calibration assumes the
// workload is deterministic for a fixed seed (the paper's assumption,
// Appendix C.1); a runner on a virtual clock can therefore profile one
// training under every subset, while one on a wall clock must train once
// per subset.
type Runner func(seed int64, flags ...trace.FeatureFlags) ([]*RunStats, error)

// runAll calls run and checks that it returned one run per flag set.
func runAll(run Runner, seed int64, flags ...trace.FeatureFlags) ([]*RunStats, error) {
	runs, err := run(seed, flags...)
	if err != nil {
		return nil, err
	}
	if len(runs) != len(flags) {
		return nil, fmt.Errorf("calib: runner returned %d runs for %d flag sets", len(runs), len(flags))
	}
	return runs, nil
}

// Calibration holds the estimated mean cost of each book-keeping path.
// It is the reusable artifact the paper describes: "calibration only needs
// to be done once per workload and can be reused in future profiling runs".
type Calibration struct {
	// Annotation, Interception and CUDAIntercept are mean costs per
	// occurrence, from delta calibration.
	Annotation    vclock.Duration
	Interception  vclock.Duration
	CUDAIntercept vclock.Duration
	// CUPTI is the per-API mean inflation, from difference-of-average
	// calibration.
	CUPTI map[string]vclock.Duration
}

// MeanFor returns the calibrated mean for one overhead marker.
func (c *Calibration) MeanFor(kind trace.OverheadKind, name string) vclock.Duration {
	switch kind {
	case trace.OverheadAnnotation:
		return c.Annotation
	case trace.OverheadInterception:
		return c.Interception
	case trace.OverheadCUDAIntercept:
		return c.CUDAIntercept
	case trace.OverheadCUPTI:
		return c.CUPTI[name]
	default:
		return 0
	}
}

// Calibrate runs the delta-calibration ladder plus the difference-of-average
// CUPTI pass over five feature subsets of one seed:
//
//	base (uninstrumented), +annotations, +interception, +CUDA hook,
//	and +CUDA hook+CUPTI.
//
// The +CUDA hook run serves both passes: it is the CUDA hook's delta run
// and CUPTI's baseline.
func Calibrate(run Runner, seed int64) (*Calibration, error) {
	runs, err := runAll(run, seed,
		trace.Uninstrumented(),
		trace.FeatureFlags{Annotations: true},
		trace.FeatureFlags{Interception: true},
		trace.FeatureFlags{CUDAIntercept: true},
		trace.FeatureFlags{CUDAIntercept: true, CUPTI: true},
	)
	if err != nil {
		return nil, fmt.Errorf("calib: calibration runs: %w", err)
	}
	base, annotated, intercepted, hooked, withCUPTI := runs[0], runs[1], runs[2], runs[3], runs[4]
	cal := &Calibration{
		Annotation:    DeltaMean(base, annotated, trace.OverheadAnnotation),
		Interception:  DeltaMean(base, intercepted, trace.OverheadInterception),
		CUDAIntercept: DeltaMean(base, hooked, trace.OverheadCUDAIntercept),
		CUPTI:         map[string]vclock.Duration{},
	}
	// Difference-of-average for CUPTI: both runs need the CUDA hook on so
	// per-API durations are observable; the hook cost itself cancels in
	// the difference.
	for api := range withCUPTI.APICount {
		cal.CUPTI[api] = APIInflation(hooked, withCUPTI, api)
	}
	return cal, nil
}

// DeltaMean is delta calibration's mean cost of one book-keeping kind
// (Appendix C.1, Figure 9): the total-runtime Δ from base to on, clamped at
// zero, divided by on's occurrence count; 0 when kind never occurred.
func DeltaMean(base, on *RunStats, kind trace.OverheadKind) vclock.Duration {
	count := on.OverheadCounts[kind]
	if count == 0 {
		return 0
	}
	return max(on.Total-base.Total, 0) / vclock.Duration(count)
}

// APIInflation is difference-of-average calibration's per-call CUPTI
// inflation of one CUDA API (Appendix C.2, Figure 10): its mean duration
// with CUPTI minus without, clamped at zero.
func APIInflation(without, with *RunStats, api string) vclock.Duration {
	return max(with.APIMean(api)-without.APIMean(api), 0)
}

// EstimatedOverhead returns the total overhead a corrected analysis will
// subtract from a run, split by marker kind and name — the stacked overhead
// components of Figure 11.
func EstimatedOverhead(t *trace.Trace, cal *Calibration) map[OverheadComponent]vclock.Duration {
	out := map[OverheadComponent]vclock.Duration{}
	for _, e := range t.Events {
		if e.Kind != trace.KindOverhead {
			continue
		}
		c := OverheadComponent{Kind: e.Overhead}
		if e.Overhead == trace.OverheadInterception || e.Overhead == trace.OverheadCUPTI {
			c.Name = e.Name
		}
		out[c] += cal.MeanFor(e.Overhead, e.Name)
	}
	return out
}

// OverheadComponent labels one stack of Figure 11's overhead breakdown.
type OverheadComponent struct {
	Kind trace.OverheadKind
	Name string // transition label or API name where it matters
}

// String returns the legend label.
func (c OverheadComponent) String() string {
	if c.Name == "" {
		return c.Kind.String()
	}
	return fmt.Sprintf("%v (%s)", c.Kind, c.Name)
}

// CorrectedTotal computes the total training time of a (corrected) trace:
// the longest root-process CPU extent.
func CorrectedTotal(t *trace.Trace) vclock.Duration {
	var total vclock.Duration
	for _, p := range t.ProcIDs() {
		res := overlap.Compute(t.ProcEvents(p))
		if d := vclock.Duration(res.SpanEnd - res.SpanStart); d > total {
			total = d
		}
	}
	return total
}
