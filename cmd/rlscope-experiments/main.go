// Command rlscope-experiments regenerates the paper's tables and figures
// (see DESIGN.md's per-experiment index) and prints them as text tables.
//
// Usage:
//
//	rlscope-experiments -run all
//	rlscope-experiments -run fig4,fig5 -steps 1000
//
// Exit status: 0 on success, 1 when an experiment fails, 2 on an unknown
// id or a negative -steps (refused before anything runs), 130 on interrupt.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	all, _ := experiments.Select("all")
	fs := cli.NewFlagSet("rlscope-experiments", stderr)
	var (
		runIDs = fs.String("run", "all", "comma-separated experiment ids: "+strings.Join(all, ","))
		steps  = fs.Int("steps", 0, "environment-step budget per workload (0 = per-figure default)")
		seed   = fs.Int64("seed", 1, "random seed")
	)
	return cli.Run(ctx, fs, args, func() error {
		if *steps < 0 {
			return cli.Usagef("-steps %d: want 0 (the per-figure default) or more", *steps)
		}
		ids, err := experiments.Select(*runIDs)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		// A signal cancels the experiment pipelines' context: the harnesses
		// stop dispatching replay/analysis jobs, drain the in-flight ones,
		// and the loop below stops before the next experiment.
		opts := experiments.Options{Steps: *steps, Seed: *seed, Context: ctx}
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("before %s: %w", id, err)
			}
			text, err := experiments.Render(id, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Fprintln(stdout, text)
		}
		return nil
	})
}
