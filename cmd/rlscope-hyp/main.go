// Command rlscope-hyp evaluates the committed hypothesis grid — the
// paper's findings F.1–F.12 and this repo's own scaling claims, encoded as
// declarative experiments (see DESIGN.md §10) — and emits a machine-readable
// verdict document.
//
// Usage:
//
//	rlscope-hyp                                  # run hypotheses.json, verdicts to stdout
//	rlscope-hyp -out verdicts.json -gate         # CI: archive verdicts, fail on refuted deterministic
//	rlscope-hyp -ids F.1,F.10 -timing=false      # a subset, excluding wall-clock hypotheses
//	rlscope-hyp -list                            # show the grid without running it
//	rlscope-hyp -metrics fig4 -steps 800 -seed 42  # dump one experiment's metric bundle
//
// Exit status: 0 on success, 1 when -gate trips (a refuted deterministic
// hypothesis — always a bug), 2 on usage errors, 130 on interrupt.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/hypothesis"
)

func main() {
	var (
		gridPath = flag.String("grid", "hypotheses.json", "experiment grid to evaluate")
		ids      = flag.String("ids", "", "comma-separated hypothesis ids (default: all)")
		steps    = flag.Int("steps", 0, "override every hypothesis's step budget (0 = grid scale; verdicts are calibrated at grid scale)")
		timing   = flag.Bool("timing", true, "include wall-clock (timing) hypotheses; disable for byte-deterministic output")
		out      = flag.String("out", "", "write the verdict document to this file (default: stdout)")
		gate     = flag.Bool("gate", false, "exit 1 when any deterministic hypothesis is refuted")
		list     = flag.Bool("list", false, "print the grid's hypotheses without running them")
		metrics  = flag.String("metrics", "", "dump one experiment's metric bundle instead of evaluating (ids: "+strings.Join(experiments.MetricExperiments, ",")+")")
		seed     = flag.Int64("seed", 1, "seed for -metrics")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metrics != "" {
		bundle, err := experiments.Metrics(ctx, *metrics, *steps, *seed)
		if err != nil {
			fail(ctx, err)
		}
		emit(bundle, *out)
		return
	}

	grid, err := hypothesis.LoadGrid(*gridPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlscope-hyp: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, h := range grid.Hypotheses {
			timingNote := ""
			if h.Timing {
				timingNote = ", timing"
			}
			fmt.Printf("%-18s %-13s %-10s %d seeds%s  %s\n",
				h.ID, h.Class, h.Experiment, len(h.Seeds), timingNote, h.Title)
		}
		return
	}

	var idList []string
	if *ids != "" {
		for _, id := range strings.Split(*ids, ",") {
			idList = append(idList, strings.TrimSpace(id))
		}
	}
	eval := hypothesis.NewEvaluator(experiments.Metrics)
	doc, err := eval.Evaluate(grid, hypothesis.Options{
		IDs: idList, Timing: *timing, Steps: *steps, Context: ctx,
	})
	if err != nil {
		fail(ctx, err)
	}
	doc.Grid = *gridPath
	emit(doc, *out)

	for _, r := range doc.Results {
		fmt.Fprintf(os.Stderr, "rlscope-hyp: %-18s %s\n", r.ID, r.Verdict)
	}
	if *gate {
		if err := hypothesis.Gate(doc); err != nil {
			fmt.Fprintf(os.Stderr, "rlscope-hyp: gate: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "rlscope-hyp: gate passed")
	}
}

// emit writes v as deterministic, indented JSON to path or stdout.
func emit(v any, path string) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlscope-hyp: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if path == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rlscope-hyp: %v\n", err)
		os.Exit(1)
	}
}

// fail reports an evaluation error, distinguishing interruption (130) from
// failure (1).
func fail(ctx context.Context, err error) {
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "rlscope-hyp: interrupted: %v\n", err)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "rlscope-hyp: %v\n", err)
	os.Exit(1)
}
