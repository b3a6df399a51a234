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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	rlscope "repro"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	var (
		dir         = flag.String("trace", "", "trace directory (required)")
		csv         = flag.Bool("csv", false, "emit CSV instead of tables")
		phases      = flag.Bool("phases", false, "also print per-phase breakdowns")
		summary     = flag.Bool("summary", false, "print trace statistics (event counts, top kernels)")
		timeline    = flag.Bool("timeline", false, "render an ASCII timeline of process 0")
		tree        = flag.Bool("tree", false, "render the multi-process fork tree (Figure 8 style)")
		workers     = flag.Int("workers", 0, "analysis worker pool size (0 = one per CPU)")
		maxResident = flag.Int64("max-resident", 0, "streaming memory budget in bytes (0 = unbounded)")
		jsonOut     = flag.Bool("json", false, "emit the analysis as the stable JSON document rlscope-serve serves")
		resultOnly  = flag.Bool("result-only", false, "with -json: omit the run-descriptive stats block, matching the document live-ingested traces serve")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "rlscope-analyze: -trace is required")
		os.Exit(2)
	}
	// The report modes below force materialization, which loads the whole
	// trace regardless of any streaming budget. A -max-resident that can't
	// be honored is a conflict, not a preference — reject it instead of
	// silently analyzing at full residency.
	if *maxResident > 0 && (*summary || *timeline || *tree || *phases) {
		fmt.Fprintln(os.Stderr, "rlscope-analyze: -max-resident conflicts with -summary/-timeline/-tree/-phases: those modes materialize the whole trace, so the budget cannot be honored; drop -max-resident or the materializing flag")
		os.Exit(2)
	}
	// -json emits the one canonical document; the human report modes write
	// interleaved text, so combining them would corrupt both outputs.
	if *jsonOut && (*csv || *summary || *timeline || *tree || *phases) {
		fmt.Fprintln(os.Stderr, "rlscope-analyze: -json cannot be combined with -csv/-summary/-timeline/-tree/-phases")
		os.Exit(2)
	}
	if *resultOnly && !*jsonOut {
		fmt.Fprintln(os.Stderr, "rlscope-analyze: -result-only requires -json")
		os.Exit(2)
	}

	// Ctrl-C cancels the engine's context; every worker is drained before
	// Analyze returns, so the partial-stats report below never races an
	// in-flight shard computation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := rlscope.NewEngine(
		rlscope.WithWorkers(*workers),
		rlscope.WithMaxResidentBytes(*maxResident),
	)

	// -phases and the report modes below consume the full event list, so
	// they force materialization; plain breakdowns stream.
	needTrace := *summary || *timeline || *tree || *phases

	var (
		tr  *trace.Trace
		src rlscope.Source
	)
	if needTrace {
		var err error
		tr, err = trace.ReadDir(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rlscope-analyze:", err)
			os.Exit(1)
		}
		src = rlscope.FromTrace(tr)
	} else {
		src = rlscope.FromDir(*dir)
	}

	rep, err := eng.Analyze(ctx, src)
	if err != nil {
		if ctx.Err() != nil && rep != nil {
			// Interrupted: report how far the run got instead of dying
			// mid-write. The stats are complete up to the cancellation
			// point; results are discarded.
			st := rep.Stats
			fmt.Fprintf(os.Stderr, "rlscope-analyze: interrupted: %v\n", err)
			fmt.Fprintf(os.Stderr, "rlscope-analyze: partial progress: %d of %d chunks decoded (%d events), %d window computations dispatched, peak resident %d events (%d bytes), %d evictions\n",
				st.ChunksDecoded, st.Chunks, st.Events, st.Shards, st.PeakResidentEvents, st.PeakResidentBytes, st.Evictions)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "rlscope-analyze:", err)
		os.Exit(1)
	}
	meta := rep.Meta
	results := rep.Results
	if *jsonOut {
		// The same document rlscope-serve answers POST /analyze with:
		// same construction, same encoder, byte-identical output for the
		// same trace and options. -result-only drops the stats block,
		// leaving the pure-function-of-content document the live-ingest
		// path serves — the form CI compares incremental vs offline.
		doc := report.NewAnalysis(meta, results, rep.Stats, rep.Corrected)
		if *resultOnly {
			doc = report.NewResultAnalysis(meta, results, rep.Corrected)
		}
		if err := doc.Encode(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rlscope-analyze:", err)
			os.Exit(1)
		}
		return
	}
	if !needTrace {
		fmt.Fprintf(os.Stderr, "rlscope-analyze: streamed %d chunks, peak resident %d events\n",
			rep.Stats.Chunks, rep.Stats.PeakResidentEvents)
	}
	fmt.Fprintf(os.Stderr, "rlscope-analyze: %s (%d events, flags %s)\n",
		meta.Workload, rep.Stats.Events, meta.Config)

	if *summary {
		fmt.Print(trace.Summarize(tr))
		fmt.Println()
	}
	if *timeline {
		start, end := tr.Span()
		fmt.Print(report.Timeline(tr.ProcEvents(0), start, end, 100))
		fmt.Println()
	}
	if *tree {
		fmt.Print(report.ProcessTree(tr, results))
		fmt.Println()
	}
	var rows []*report.Breakdown
	for _, p := range sortedProcs(results) {
		res := results[p]
		rows = append(rows, report.FromResult(report.ProcName(meta, p), res, report.SortedOps(res)))
	}
	if *csv {
		fmt.Print(report.CSV(rows))
		return
	}
	fmt.Print(report.Table("RL-Scope time breakdown: "+meta.Workload, rows))
	if *phases {
		fmt.Print(report.PhaseTable("Training phases", overlap.PhasesByProc(tr), meta))
	}
}

// sortedProcs returns the result map's process IDs in ascending order — the
// same order trace.ProcIDs yields for a materialized trace.
func sortedProcs(results map[trace.ProcID]*overlap.Result) []trace.ProcID {
	procs := make([]trace.ProcID, 0, len(results))
	for p := range results {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	return procs
}
