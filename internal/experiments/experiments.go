// Package experiments regenerates every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index). Each harness runs the
// relevant workloads, computes RL-Scope's cross-stack analysis, and returns
// structured results, which Metrics flattens into the bundles hypotheses.json
// asserts, and text renderings (printed by cmd/rlscope-experiments).
//
// Figure-generating harnesses run workloads uninstrumented: in this
// simulation an uninstrumented trace is exactly what a perfectly corrected
// instrumented trace estimates, so the figures show ground truth while the
// calibration experiments (Figures 9–11, Appendix C.4) exercise the
// correction machinery itself.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options controls experiment scale. Zero values select per-figure defaults
// sized for the benchmark harness; tests use smaller step counts.
type Options struct {
	// Steps is the environment-step budget per workload.
	Steps int
	// Seed drives all randomness.
	Seed int64
	// Context, when non-nil, cancels long experiment pipelines between
	// replay/analysis jobs — the CLI passes a SIGINT-driven context so
	// Ctrl-C interrupts a sweep cleanly. nil means context.Background().
	Context context.Context
}

func (o Options) steps(def int) int {
	if o.Steps > 0 {
		return o.Steps
	}
	return def
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// runUninstrumented executes a workload spec and returns its overlap
// analysis and stats. The analysis runs through the sharded engine with a
// single worker: figure harnesses parallelize across workload replays (the
// coarser, better-balanced grain), so per-trace shards stay inline.
func runUninstrumented(spec workloads.Spec) (*overlap.Result, *calib.RunStats, error) {
	stats, err := workloads.Run(spec, trace.Uninstrumented())
	if err != nil {
		return nil, nil, err
	}
	return analyzeMain(stats.Trace), stats, nil
}

// analyzeMain returns the main process's overlap breakdown, or an empty
// result for a trace with no process-0 events — analysis.Run only has
// entries for processes that appear in the trace.
func analyzeMain(tr *trace.Trace) *overlap.Result {
	if res := analysis.Run(tr, analysis.Options{Workers: 1})[0]; res != nil {
		return res
	}
	return overlap.Compute(nil)
}

// forEach runs n independent experiment jobs (workload replays, validation
// runs), fn(0) … fn(n-1), at most GOMAXPROCS at once. Jobs are dispatched in
// index order and none once ctx is cancelled or a job has failed; every
// dispatched job runs to completion, so the lowest failing index always runs
// and its error is the one returned — else ctx.Err().
func forEach(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	jobs, fail := context.WithCancel(ctx)
	defer fail()
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		if jobs.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			if errs[i] = fn(i); errs[i] != nil {
				fail()
			}
		}()
	}
	wg.Wait()
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		return errs[i]
	}
	return ctx.Err()
}

// runPair executes two independent workload replays concurrently — the
// calibration illustrations all compare a pair of runs under different
// feature flags.
func runPair(ctx context.Context, a, b func() (*calib.RunStats, error)) (*calib.RunStats, *calib.RunStats, error) {
	var ra, rb *calib.RunStats
	err := forEach(ctx, 2, func(i int) error {
		var err error
		if i == 0 {
			ra, err = a()
		} else {
			rb, err = b()
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return ra, rb, nil
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Framework string
	ExecModel string
	Backend   string
}

// Table1 reproduces Table 1: the ⟨execution model, ML backend⟩ matrix.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, m := range []backend.ExecModel{
		backend.Graph, backend.Autograph, backend.EagerTF, backend.EagerPyTorch,
	} {
		rows = append(rows, Table1Row{
			Framework: m.Framework(),
			ExecModel: strings.TrimPrefix(strings.TrimPrefix(m.String(), "TensorFlow "), "PyTorch "),
			Backend:   m.BackendName(),
		})
	}
	return rows
}

// RenderTable1 renders Table 1 as text.
func RenderTable1() string {
	var sb strings.Builder
	sb.WriteString("== Table 1: RL frameworks (execution model × ML backend) ==\n")
	fmt.Fprintf(&sb, "%-18s %-12s %-18s\n", "RL framework", "Exec model", "ML backend")
	for _, r := range Table1() {
		fmt.Fprintf(&sb, "%-18s %-12s %-18s\n", r.Framework, r.ExecModel, r.Backend)
	}
	return sb.String()
}
