// Package analysis is RL-Scope's offline-analysis engine. The paper's
// overlap computation (§3.3) is one sweep per process, and the windowed
// sweep (overlap.ComputeWindow) is exact for any cut of a process's
// timeline (see window), so there is one batch pipeline: plan watermarks
// from chunk indexes, route each event to its process's one open window, cut
// windows by size at watermarks, sweep the closed windows on a worker pool,
// merge per process. Run feeds it a materialized trace, RunStream a chunked
// directory — decoded, when there is a pool, one chunk ahead of the router by
// a goroutine of its own (decodeAhead); Incremental drives the same windows
// for a trace still growing.
//
// Results are byte-identical for any worker count — including Workers: 1,
// which executes inline with no goroutines at all — any memory budget and
// either source. Engine.Analyze, the one context-aware entry point, stops
// dispatching work as soon as the context is cancelled and joins every
// worker goroutine before returning — cancellation drains the pool, it never
// leaks it.
package analysis

import (
	"context"

	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/trace"
)

// Progress stage labels.
const (
	// StageCorrect is the streaming correction pre-pass (marker collection).
	StageCorrect = "correct"
	// StageAnalyze is the analysis pass itself.
	StageAnalyze = "analyze"
)

// Progress is one notification from a running analysis, delivered on the
// producing goroutine (callbacks need no locking). Streaming runs report
// after every chunk; materialized runs after every run of at most
// splitEvents events of one process.
type Progress struct {
	// Stage is StageCorrect or StageAnalyze.
	Stage string
	// ChunksDone and Chunks count chunk files processed so far (zero for
	// materialized sources, which have no chunks).
	ChunksDone, Chunks int
	// Shards counts window computations dispatched so far.
	Shards int
	// Events counts events read so far, before any Options.Stage.
	Events int
}

// Options configures an analysis.
type Options struct {
	// Workers is the number of concurrent sweep workers. Zero or negative
	// selects one worker per available CPU; 1 runs strictly sequentially.
	Workers int
	// MaxResidentBytes, when positive, bounds the estimated bytes of
	// events the pipeline keeps buffered: whenever open windows plus
	// windows in flight exceed the budget, any window — not only those
	// that reached splitEvents — is cut at its watermark and its dead
	// events dropped, carrying only still-open intervals forward. The
	// bound is best-effort — a single chunk, plus intervals genuinely open
	// across the whole trace, must stay resident regardless.
	MaxResidentBytes int64
	// Procs, when non-empty, restricts the analysis to the listed
	// processes; chunks that hold none of them are never decoded.
	Procs []trace.ProcID
	// Stage, when non-nil, corrects every event between decode and routing:
	// it shifts each event's timestamps left by the calibrated overhead that
	// preceded it and drops the overhead markers, so a corrected analysis
	// runs in bounded memory without materializing the corrected trace. The
	// result is byte-identical to calib.Correct followed by the analysis.
	Stage *calib.Corrector
	// Progress, when non-nil, receives progress notifications.
	Progress func(Progress)
}

// StreamStats reports what an analysis did: how much it read, how it
// scheduled the work, and the peak number of events it ever held buffered —
// the quantity MaxResidentBytes bounds.
type StreamStats struct {
	// Chunks and Events count the chunk files in the directory (zero for a
	// materialized source, which has none) and the events read, before any
	// Options.Stage transform drops or rewrites them. Under an
	// Options.Procs restriction, chunks contributing to no requested
	// process are skipped entirely and their events never read or counted.
	Chunks, Events int
	// ChunksDecoded counts chunk files decoded and routed so far — fewer
	// than Chunks when a Procs restriction skips chunks or a cancellation
	// cuts the run short.
	ChunksDecoded int
	// Shards counts window sweeps dispatched to the pool: every prefix
	// closed at a watermark, by size or by the memory budget, and every
	// process's final window.
	Shards int
	// Evictions counts the cuts forced by MaxResidentBytes.
	Evictions int
	// PeakResidentEvents and PeakResidentBytes track the high-water mark
	// of events resident at once (buffered in open windows, in the chunk
	// being decoded, in the chunk decoded ahead of it, or in flight to a
	// worker).
	PeakResidentEvents int
	PeakResidentBytes  int64
}

// Run computes the per-process cross-stack overlap breakdown of a
// materialized trace: the pipeline over the sorted trace presented as
// per-process runs of at most splitEvents events. The result is identical to
// running overlap.Compute per process regardless of worker count.
func Run(t *trace.Trace, opts Options) map[trace.ProcID]*overlap.Result {
	out, _, _ := run(context.Background(), newMemSource(t), opts)
	return out
}

// RunStream computes the same breakdown from a chunked trace directory
// without ever materializing the whole trace: the pipeline over the chunks
// of r, decoded lazily one at a time. The result is byte-identical to
// Run(ReadDir(dir)) for every worker count and every memory budget.
func RunStream(r *trace.Reader, opts Options) (map[trace.ProcID]*overlap.Result, StreamStats, error) {
	return run(context.Background(), readerSource{r}, opts)
}

// MergeResult folds one window result into an accumulator with the exact
// deterministic merge every path uses: commutative integer sums for
// breakdown cells and transition counts, span extremes with the zero-span
// sentinel respected. Merging N results this way is byte-identical (after
// rendering) to one sweep over the concatenated inputs, which is also what
// lets the fleet aggregation layer merge per-trace Results with it. Span is
// only merged from results that saw interval events: ComputeWindow leaves
// the span zeroed otherwise, and a process with no interval events must end
// with a zero span exactly like sequential Compute.
func MergeResult(dst, src *overlap.Result) {
	for k, d := range src.ByKey {
		dst.ByKey[k] += d
	}
	for k, n := range src.Transitions {
		dst.Transitions[k] += n
	}
	if src.SpanStart == 0 && src.SpanEnd == 0 {
		return // no interval events
	}
	if dst.SpanStart == 0 && dst.SpanEnd == 0 {
		dst.SpanStart, dst.SpanEnd = src.SpanStart, src.SpanEnd
		return
	}
	dst.SpanStart = min(dst.SpanStart, src.SpanStart)
	dst.SpanEnd = max(dst.SpanEnd, src.SpanEnd)
}
