// Command rlscope-hyp evaluates the committed hypothesis grid — the
// paper's findings F.1–F.12 and this repo's own scaling claims, encoded as
// declarative experiments (see DESIGN.md §10) — and emits a machine-readable
// verdict document.
//
// Usage:
//
//	rlscope-hyp                                  # run hypotheses.json, verdicts to stdout
//	rlscope-hyp -out verdicts.json -gate         # regenerate the committed golden; exit 1 on a refuted deterministic
//	rlscope-hyp -ids F.1,D.seed-repro            # a subset
//	rlscope-hyp -list                            # show the grid without running it
//	rlscope-hyp -metrics fig4 -steps 800 -seed 42  # dump one experiment's metric bundle
//
// Exit status: 0 on success, 1 when -gate trips (a refuted deterministic
// hypothesis — always a bug), 2 on usage errors, 130 on interrupt.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/hypothesis"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rlscope-hyp", stderr)
	var (
		gridPath = fs.String("grid", "hypotheses.json", "experiment grid to evaluate")
		ids      = fs.String("ids", "", "comma-separated hypothesis ids (default: all)")
		steps    = fs.Int("steps", 0, "override every hypothesis's step budget (0 = grid scale; verdicts are calibrated at grid scale)")
		out      = fs.String("out", "", "write the verdict document to this file (default: stdout)")
		gate     = fs.Bool("gate", false, "exit 1 when any deterministic hypothesis is refuted")
		list     = fs.Bool("list", false, "print the grid's hypotheses without running them")
		metrics  = fs.String("metrics", "", "dump one experiment's metric bundle instead of evaluating (ids: "+strings.Join(experiments.MetricExperiments, ",")+")")
		seed     = fs.Int64("seed", 1, "seed for -metrics")
	)
	// emit writes v, encoded, to -out or stdout.
	emit := func(v any) error {
		data, err := encode(v)
		if err == nil && *out != "" {
			err = os.WriteFile(*out, data, 0o644)
		} else if err == nil {
			_, err = stdout.Write(data)
		}
		return err
	}
	return cli.Run(ctx, fs, args, func() error {
		if *metrics != "" {
			bundle, err := experiments.Metrics(ctx, *metrics, *steps, *seed)
			if err != nil {
				return err
			}
			return emit(bundle)
		}

		grid, err := hypothesis.LoadGrid(*gridPath)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		if *list {
			return writeList(stdout, grid.Hypotheses)
		}

		var idList []string
		if *ids != "" {
			for _, id := range strings.Split(*ids, ",") {
				idList = append(idList, strings.TrimSpace(id))
			}
		}
		doc, err := hypothesis.NewEvaluator(experiments.Metrics).Evaluate(grid, hypothesis.Options{
			IDs: idList, Steps: *steps, Context: ctx,
		})
		if err != nil {
			return err
		}
		doc.Grid = *gridPath
		if err := emit(doc); err != nil {
			return err
		}

		tw := tabwriter.NewWriter(stderr, 0, 0, 1, ' ', 0)
		for _, r := range doc.Results {
			fmt.Fprintf(tw, "rlscope-hyp: %s\t%s\n", r.ID, r.Verdict)
		}
		tw.Flush()
		if *gate {
			if err := hypothesis.Gate(doc); err != nil {
				return fmt.Errorf("gate: %w", err)
			}
			fmt.Fprintln(stderr, "rlscope-hyp: gate passed")
		}
		return nil
	})
}

// writeList prints one row per hypothesis, each column padded to its
// widest cell, so that an id of any length keeps the columns after it in
// line.
func writeList(w io.Writer, hs []hypothesis.Hypothesis) error {
	tw := tabwriter.NewWriter(w, 0, 0, 1, ' ', 0)
	for _, h := range hs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d seeds\t %s\n", h.ID, h.Class, h.Experiment, len(h.Seeds), h.Title)
	}
	return tw.Flush()
}

// encode is the command's one output encoding; verdicts.json is its output.
func encode(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	return append(data, '\n'), err
}
