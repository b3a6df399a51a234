// Package experiments regenerates every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index). Each harness runs the
// relevant workloads, computes RL-Scope's cross-stack analysis, and returns
// structured results, which Metrics flattens into the bundles hypotheses.json
// asserts, and text renderings (printed by cmd/rlscope-experiments). The
// experiment table below declares every id once.
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

// experiment is one row of the experiment table: a paper table or figure,
// an extension study, or a grid-only metric bundle. render is the text
// rlscope-experiments prints; metrics is the flat name → scalar bundle the
// hypothesis grid (internal/hypothesis) reads at one ⟨id, steps, seed⟩ cell.
// Either may be nil.
type experiment struct {
	id      string
	render  func(Options) (string, error)
	metrics func(Options) (map[string]float64, error)
}

// table declares every experiment once, renders in the order `-run all`
// prints them. The ids are stable: the committed grid and the docs name them.
var table = []experiment{
	{"table1", static(RenderTable1), table1Metrics},
	{"fig3", static(func() string { return Figure3().Render() }), fig3Metrics},
	{"fig4", render(Figure4), fig4Metrics},
	{"fig5", render(Figure5), fig5Metrics},
	{"fig6", static(RenderFigure6), nil},
	{"fig7", render(Figure7), fig7Metrics},
	{"fig8", render(Figure8), fig8Metrics},
	{"fig9", render(Figure9), nil},
	{"fig10", render(Figure10), nil},
	{"fig11", render(Figure11), nil},
	{"c4", render(AppendixC4), nil},
	{"scaling", render(Figure8Scaling), scalingMetrics},
	{"stream", render(StreamReplay), streamMetrics},
	{"seedrepro", nil, seedReproMetrics},
	{"multihost", nil, multihostMetrics},
	{"ingest", nil, ingestMetrics},
	{"formatv2", nil, formatv2Metrics},
	{"fleet", nil, fleetMetrics},
}

// render adapts a harness whose result renders itself.
func render[R interface{ Render() string }](run func(Options) (R, error)) func(Options) (string, error) {
	return func(opts Options) (string, error) {
		r, err := run(opts)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// static adapts a render that computes nothing.
func static(text func() string) func(Options) (string, error) {
	return func(Options) (string, error) { return text(), nil }
}

// MetricExperiments lists the bundle ids Metrics accepts, and renders the
// ids Render accepts, in table order.
var MetricExperiments, renders = tableIDs()

func tableIDs() (metrics, renders []string) {
	for _, e := range table {
		if e.metrics != nil {
			metrics = append(metrics, e.id)
		}
		if e.render != nil {
			renders = append(renders, e.id)
		}
	}
	return metrics, renders
}

// lookup returns the named row, or the zero row.
func lookup(id string) experiment {
	for _, e := range table {
		if e.id == id {
			return e
		}
	}
	return experiment{}
}

func unknown(id string, have []string) error {
	return fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(have, ","))
}

// Metrics computes the named experiment's metric bundle.
func Metrics(ctx context.Context, id string, steps int, seed int64) (map[string]float64, error) {
	if e := lookup(id); e.metrics != nil {
		return e.metrics(Options{Steps: steps, Seed: seed, Context: ctx})
	}
	return nil, unknown(id, MetricExperiments)
}

// Select resolves a comma-separated list of render ids, or "all", to the
// ids to render, in table order. It runs nothing, so a typo fails before
// any experiment has run.
func Select(run string) ([]string, error) {
	if run == "all" {
		return slices.Clone(renders), nil
	}
	want := strings.Split(run, ",")
	for i, id := range want {
		if want[i] = strings.TrimSpace(id); lookup(want[i]).render == nil {
			return nil, unknown(want[i], renders)
		}
	}
	return slices.DeleteFunc(slices.Clone(renders), func(id string) bool { return !slices.Contains(want, id) }), nil
}

// Render runs the named experiment and returns its text rendering.
func Render(id string, opts Options) (string, error) {
	if e := lookup(id); e.render != nil {
		return e.render(opts)
	}
	return "", unknown(id, renders)
}

// profile replays spec uninstrumented and returns its main process's
// breakdown. The analysis runs through the sharded engine with a single
// worker: figure harnesses parallelize across workload replays (the coarser,
// better-balanced grain), so per-trace shards stay inline.
func profile(spec workloads.Spec) (Figure4Entry, error) {
	stats, err := workloads.Run(spec, trace.Uninstrumented())
	if err != nil {
		return Figure4Entry{}, err
	}
	return Figure4Entry{
		Algo: spec.Algo, Env: spec.Env, Model: spec.Model,
		Res: analyzeMain(stats.Trace), Total: stats.Total,
	}, nil
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
