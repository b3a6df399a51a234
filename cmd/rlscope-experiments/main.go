// Command rlscope-experiments regenerates the paper's tables and figures
// (see DESIGN.md's per-experiment index) and prints them as text tables.
//
// Usage:
//
//	rlscope-experiments -run all
//	rlscope-experiments -run fig4,fig5 -steps 1000
//
// Exit status: 0 on success, 1 when an experiment fails, 2 on an unknown
// id (refused before anything runs), 130 on interrupt.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/experiments"
)

func main() {
	all, _ := experiments.Select("all")
	var (
		run   = flag.String("run", "all", "comma-separated experiment ids: "+strings.Join(all, ","))
		steps = flag.Int("steps", 0, "environment-step budget per workload (0 = per-figure default)")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	ids, err := experiments.Select(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlscope-experiments: %v\n", err)
		os.Exit(2)
	}
	// Ctrl-C cancels the experiment pipelines' context: the harnesses stop
	// dispatching replay/analysis jobs, drain the in-flight ones, and the
	// loop below stops before the next experiment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := experiments.Options{Steps: *steps, Seed: *seed, Context: ctx}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "rlscope-experiments: interrupted before %s: %v\n", id, err)
			os.Exit(130)
		}
		text, err := experiments.Render(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlscope-experiments: %s: %v\n", id, err)
			if ctx.Err() != nil {
				os.Exit(130)
			}
			os.Exit(1)
		}
		fmt.Println(text)
	}
}
