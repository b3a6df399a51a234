package experiments

import (
	"fmt"
	"os"
	"reflect"
	"strings"

	"repro/internal/analysis"
	"repro/internal/minigo"
	"repro/internal/trace"
)

// StreamReplayResult reports the streaming-replay extension: the paper's
// multi-process Minigo trace spilled to its chunked on-disk format, then
// analyzed by the bounded-memory streaming engine and checked against the
// materialized analysis.
type StreamReplayResult struct {
	// Events and Chunks describe the on-disk trace.
	Events, Chunks int
	// MaxResidentBytes is the streaming budget used.
	MaxResidentBytes int64
	// Stats is the streaming engine's own account of the run.
	Stats analysis.StreamStats
	// Identical reports whether the streamed breakdown matched the
	// materialized engine breakdown exactly.
	Identical bool
	// MaterializedBytes estimates the resident footprint of the
	// load-then-analyze path: every decoded event at once.
	MaterializedBytes int64
}

// StreamReplay runs the streaming-ingestion extension experiment: profile
// the Minigo scale-up pipeline (the repo's largest multi-process trace),
// write it through the chunked asynchronous writer exactly as rlscope-prof
// does, then replay the directory through an Engine under a memory
// budget of about 1/8th of the materialized trace and verify the breakdown
// is byte-identical to the load-then-analyze path.
func StreamReplay(opts Options) (*StreamReplayResult, error) {
	cfg := minigo.DefaultConfig()
	cfg.Seed = opts.Seed + 21
	if opts.Steps > 0 {
		cfg.MaxMovesPerGame = opts.Steps
	}
	res, err := minigo.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: stream replay: %w", err)
	}
	tr := res.Trace

	dir, err := os.MkdirTemp("", "rlscope-stream-replay-")
	if err != nil {
		return nil, fmt.Errorf("experiments: stream replay: %w", err)
	}
	defer os.RemoveAll(dir)
	if err := writeTraceDir(dir, tr); err != nil {
		return nil, fmt.Errorf("experiments: stream replay: %w", err)
	}

	var materialized int64
	for _, e := range tr.Events {
		materialized += int64(trace.EventBytes(e))
	}
	budget := materialized / 8

	r, err := trace.OpenDir(dir)
	if err != nil {
		return nil, fmt.Errorf("experiments: stream replay: %w", err)
	}
	// One worker: windows are swept inline in fixed process order, so the
	// peak-residency figures the hypothesis grid reports repeat exactly
	// instead of following worker interleaving.
	streamed, err := analysis.NewEngine(analysis.WithWorkers(1), analysis.WithMaxResidentBytes(budget)).
		Analyze(opts.ctx(), analysis.FromReader(r))
	if err != nil {
		return nil, fmt.Errorf("experiments: stream replay: %w", err)
	}
	want, err := analysis.NewEngine().Analyze(opts.ctx(), analysis.FromTrace(tr))
	if err != nil {
		return nil, fmt.Errorf("experiments: stream replay: %w", err)
	}

	return &StreamReplayResult{
		Events:            len(tr.Events),
		Chunks:            r.NumChunks(),
		MaxResidentBytes:  budget,
		Stats:             streamed.Stats,
		Identical:         reflect.DeepEqual(streamed.Results, want.Results),
		MaterializedBytes: materialized,
	}, nil
}

// Render renders the streaming-replay result.
func (r *StreamReplayResult) Render() string {
	var sb strings.Builder
	sb.WriteString("== Extension: streaming trace ingestion (bounded-memory replay of the Minigo scale-up trace) ==\n")
	fmt.Fprintf(&sb, "%-28s %d events in %d chunks (~%d KiB decoded)\n",
		"on-disk trace", r.Events, r.Chunks, r.MaterializedBytes>>10)
	fmt.Fprintf(&sb, "%-28s %d KiB\n", "memory budget", r.MaxResidentBytes>>10)
	fmt.Fprintf(&sb, "%-28s %d events (%d KiB), vs %d materialized\n",
		"peak resident", r.Stats.PeakResidentEvents, r.Stats.PeakResidentBytes>>10, r.Events)
	fmt.Fprintf(&sb, "%-28s %d window computations, %d early finalizations\n",
		"schedule", r.Stats.Shards, r.Stats.Evictions)
	fmt.Fprintf(&sb, "%-28s %v\n", "identical to materialized", r.Identical)
	sb.WriteString("chunked ingestion keeps analysis memory bounded while reproducing the exact breakdown\n")
	return sb.String()
}
