// Command benchmark is the repository's one end-to-end benchmark: four
// closed-loop workloads over the whole stack, timed in units of a
// co-measured reference kernel so that machine drift cancels, with every
// output checked against a reference built at set-up. README.md in this
// directory defines the metrics and says what each workload is for.
//
//	go run -C benchmark . --workload analyze --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . --workload analyze --seed 1 --seconds 20 --trace 1
//	go run -C benchmark . --agree 10
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. --trace 0 reports the end-to-end metrics of the named
// workload; --trace 1 runs every workload at a quarter of the rounds with
// the span recorder on, then the layer probes, reports the per-layer
// metrics and writes the spans to --spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var allWorkloads = []*workload{recordWorkload, analyzeWorkload, liveWorkload, serveWorkload}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// output is the contract's result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	scale    float64
	trace    bool
	spans    string // span file of the traced run; "" writes none
	root     string // checkout root: where BENCHMARK.json is
}

func main() {
	var (
		cfg   config
		trace int
		agree int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: record, analyze, live or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 0, "length of the timed phase; fixes the round count (default: BENCHMARK.json's run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies fixture sizes and rounds (tests use 0.02)")
	flag.StringVar(&cfg.spans, "spans", "", "span file of the traced run (default .bench_build/spans/<workload>-<seed>.json)")
	flag.IntVar(&agree, "agree", 0, "run two sets of K full runs per workload and compare their medians against the bounds")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	cfg.root = root
	cfg.trace = trace != 0
	if cfg.seconds == 0 {
		bf, err := loadBenchmarkFile(root)
		if err != nil {
			fatal(err)
		}
		cfg.seconds = bf.RunSeconds
	}
	if agree > 0 {
		if err := runAgree(root, agree, cfg.seconds); err != nil {
			fatal(err)
		}
		return
	}
	if workloadByName(cfg.workload) == nil {
		fatal(fmt.Errorf("unknown --workload %q (want record, analyze, live or serve)", cfg.workload))
	}
	if cfg.seconds < 1 {
		fatal(errors.New("--seconds must be at least 1"))
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	printMetrics(os.Stdout, out.Metrics)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: `go run -C benchmark .` starts the program one level
// below it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// run executes one invocation in-process and removes its stores, whether
// it succeeds or not.
func run(cfg config) (*output, error) {
	pinRuntime()
	store, removeStore, err := newStore(cfg.root)
	if err != nil {
		return nil, err
	}
	defer removeStore()
	e := &env{seed: cfg.seed, scale: cfg.scale, store: store}
	w := workloadByName(cfg.workload)
	budget := time.Duration(cfg.seconds) * time.Second

	if !cfg.trace {
		res, err := w.measure(e, w.rounds(cfg.seconds, cfg.scale), budget, setupRepeats)
		if err != nil {
			return nil, err
		}
		if res.firstErr != nil {
			fmt.Fprintln(os.Stderr, "benchmark: first failed op:", res.firstErr)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d ops in %.1f s (%.1f s inside ops), set-up %.2f s x %d\n",
			w.name, res.attempted, res.timed.Seconds(), res.opWall.Seconds(), median(res.setupS), len(res.setupS))
		for _, v := range res.variants {
			fmt.Fprintf(os.Stderr, "benchmark:   %-10s %8d units/op  %8.2f ms/op p10  %8.2f ms/op median  %8.3f refk/op\n",
				v.name, v.units, percentile(v.wall, opQuantile), median(v.wall), v.normOp(median(res.kernelMS)))
		}
		return &output{
			Correct:   res.failed == 0,
			Attempted: res.attempted,
			Failed:    res.failed,
			Metrics:   res.endToEnd(),
		}, nil
	}

	// Traced run: every workload at a quarter of its rounds, spans on.
	// The named workload also runs untraced at the same length, and the
	// difference between its two figures is what tracing costs.
	layer := newLayerSink()
	onTmpfs := 0.0
	if isTmpfs(store) {
		onTmpfs = 1
	}
	layer.set("harness.store_tmpfs", onTmpfs, "bool")
	out := &output{Correct: true}
	e.sp = newSpans()
	for _, each := range allWorkloads {
		rounds := max(each.rounds(cfg.seconds, cfg.scale)/4, 2)
		res, err := each.measure(e, rounds, budget/4, 1)
		if err != nil {
			return nil, err
		}
		out.add(res)
		if each != w {
			continue
		}
		res.harnessLayer(layer)
		plain := *e
		plain.sp = nil
		untraced, err := each.measure(&plain, rounds, budget/4, 1)
		if err != nil {
			return nil, err
		}
		out.add(untraced)
		layer.set("harness.trace_overhead_frac", res.normTimePerMUnit()/untraced.normTimePerMUnit()-1, "frac")
	}
	spanLayer(e.sp, layer)
	if err := probeLayers(e, layer); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if cfg.spans != "" {
		if err := e.sp.writeFile(cfg.spans); err != nil {
			return nil, err
		}
	}
	out.Metrics = layer.m
	return out, nil
}

func (o *output) add(res *runResult) {
	o.Attempted += res.attempted
	o.Failed += res.failed
	if res.failed > 0 {
		o.Correct = false
		fmt.Fprintln(os.Stderr, "benchmark: first failed op:", res.firstErr)
	}
}

func printMetrics(w *os.File, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-46s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}
