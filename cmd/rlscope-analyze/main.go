// Command rlscope-analyze performs RL-Scope's offline analysis on a trace
// directory previously written by rlscope-prof: the cross-stack overlap
// breakdown per process through the rlscope.Engine, with the worker pool
// sized by -workers; results are identical for every pool size.
//
// By default the trace is analyzed *streamingly*: chunk files are decoded
// lazily and fed to the shard pool as they arrive, so memory stays bounded
// by -max-resident instead of the trace size. Report modes that need the
// whole event list at once (-summary, -timeline, -tree, -phases) load the
// trace first; the results are byte-identical either way.
//
// Ctrl-C (or SIGTERM) cancels the analysis cleanly: in-flight workers are
// drained, and a streaming run reports the partial streaming statistics it
// accumulated instead of dying mid-write.
//
// -json swaps the text tables for the stable JSON document of
// internal/report — the same document rlscope-serve answers POST /analyze
// with (byte-identical at -workers 1, where the scheduling-stats block is
// deterministic too), so CLI and service outputs are interchangeable.
//
// Usage:
//
//	rlscope-analyze -trace /tmp/trace [-workers N] [-max-resident BYTES] [-json]
package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"syscall"

	rlscope "repro"
	"repro/internal/cli"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rlscope-analyze", stderr)
	var (
		dir         = fs.String("trace", "", "trace directory (required)")
		csv         = fs.Bool("csv", false, "emit CSV instead of tables")
		phases      = fs.Bool("phases", false, "also print per-phase breakdowns")
		summary     = fs.Bool("summary", false, "print trace statistics (event counts, top kernels)")
		timeline    = fs.Bool("timeline", false, "render an ASCII timeline of process 0")
		tree        = fs.Bool("tree", false, "render the multi-process fork tree (Figure 8 style)")
		workers     = fs.Int("workers", 0, "analysis worker pool size (0 = one per CPU)")
		maxResident = fs.Int64("max-resident", 0, "streaming memory budget in bytes (0 = unbounded)")
		jsonOut     = fs.Bool("json", false, "emit the analysis as the stable JSON document rlscope-serve serves")
		resultOnly  = fs.Bool("result-only", false, "with -json: omit the run-descriptive stats block, matching the document live-ingested traces serve")
	)
	return cli.Run(ctx, fs, args, func() error {
		// -phases and the report modes below consume the full event list,
		// so they force materialization; plain breakdowns stream.
		needTrace := *summary || *timeline || *tree || *phases
		switch {
		case *dir == "":
			return cli.Usagef("-trace is required")
		// Materializing ignores any streaming budget: a -max-resident that
		// can't be honored is a conflict, not a preference.
		case *maxResident > 0 && needTrace:
			return cli.Usagef("-max-resident conflicts with -summary/-timeline/-tree/-phases: those modes materialize the whole trace, so the budget cannot be honored; drop -max-resident or the materializing flag")
		// -json emits the one canonical document, which the text of the
		// human report modes would corrupt.
		case *jsonOut && (*csv || needTrace):
			return cli.Usagef("-json cannot be combined with -csv/-summary/-timeline/-tree/-phases")
		// -csv is one table, which the other report modes would interleave
		// text with or be dropped from.
		case *csv && needTrace:
			return cli.Usagef("-csv cannot be combined with -summary/-timeline/-tree/-phases")
		case *resultOnly && !*jsonOut:
			return cli.Usagef("-result-only requires -json")
		}

		eng := rlscope.NewEngine(
			rlscope.WithWorkers(*workers),
			rlscope.WithMaxResidentBytes(*maxResident),
		)
		var tr *trace.Trace
		src := rlscope.FromDir(*dir)
		if needTrace {
			var err error
			if tr, err = trace.ReadDir(*dir); err != nil {
				return err
			}
			src = rlscope.FromTrace(tr)
		}

		// A signal cancels the engine's context; every worker is drained
		// before Analyze returns, so the partial-stats report below never
		// races an in-flight shard computation.
		rep, err := eng.Analyze(ctx, src)
		if err != nil {
			if ctx.Err() != nil && rep != nil {
				// Interrupted: report how far the run got instead of dying
				// mid-write. The stats are complete up to the cancellation
				// point; results are discarded.
				st := rep.Stats
				fmt.Fprintf(stderr, "rlscope-analyze: partial progress: %d of %d chunks decoded (%d events), %d window computations dispatched, peak resident %d events (%d bytes), %d evictions\n",
					st.ChunksDecoded, st.Chunks, st.Events, st.Shards, st.PeakResidentEvents, st.PeakResidentBytes, st.Evictions)
			}
			return err
		}
		meta, results := rep.Meta, rep.Results
		if *jsonOut {
			// The same document rlscope-serve answers POST /analyze with:
			// same construction, same encoder, byte-identical output for
			// the same trace and options. -result-only drops the stats
			// block, leaving the pure-function-of-content document the
			// live-ingest path serves — the form CI compares incremental vs
			// offline.
			doc := report.NewAnalysis(meta, results, rep.Stats, rep.Corrected)
			if *resultOnly {
				doc = report.NewResultAnalysis(meta, results, rep.Corrected)
			}
			return doc.Encode(stdout)
		}
		if !needTrace {
			fmt.Fprintf(stderr, "rlscope-analyze: streamed %d chunks, peak resident %d events\n",
				rep.Stats.Chunks, rep.Stats.PeakResidentEvents)
		}
		fmt.Fprintf(stderr, "rlscope-analyze: %s (%d events, flags %s)\n",
			meta.Workload, rep.Stats.Events, meta.Config)

		if *summary {
			fmt.Fprintln(stdout, trace.Summarize(tr))
		}
		if *timeline {
			start, end := tr.Span()
			fmt.Fprintln(stdout, report.Timeline(tr.ProcEvents(0), start, end, 100))
		}
		if *tree {
			fmt.Fprintln(stdout, report.ProcessTree(tr, results))
		}
		// Ascending process ids, the order trace.ProcIDs yields.
		var rows []*report.Breakdown
		for _, p := range slices.Sorted(maps.Keys(results)) {
			res := results[p]
			rows = append(rows, report.FromResult(report.ProcName(meta, p), res, report.SortedOps(res)))
		}
		if *csv {
			_, err := io.WriteString(stdout, report.CSV(rows))
			return err
		}
		fmt.Fprint(stdout, report.Table("RL-Scope time breakdown: "+meta.Workload, rows))
		if *phases {
			fmt.Fprint(stdout, report.PhaseTable("Training phases", overlap.PhasesByProc(tr), meta))
		}
		return nil
	})
}
