package analysis

import (
	"context"

	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/trace"
)

// Source is one run's worth of events offered to Engine.Analyze: a
// materialized trace (FromTrace), an open chunked-trace Reader (FromReader)
// or a chunked trace directory (FromDir). The zero Source names the empty
// directory path, so analyzing it fails like any directory that does not
// open.
type Source struct {
	tr  *trace.Trace
	r   *trace.Reader
	dir string
}

// FromTrace returns a Source over an already-materialized trace.
func FromTrace(t *trace.Trace) Source { return Source{tr: t} }

// FromReader returns a streaming Source over an open chunked-trace reader.
// Reader methods are not safe for concurrent use, so neither is analyzing
// the same FromReader source from multiple goroutines at once.
func FromReader(r *trace.Reader) Source { return Source{r: r} }

// FromDir returns a streaming Source over a chunked trace directory written
// by trace.Writer. Every analysis opens the directory for itself, so one
// FromDir source can be analyzed from several goroutines at once; open
// errors surface from the analysis.
func FromDir(dir string) Source { return Source{dir: dir} }

// Engine is the one way to run an analysis: a cancellable Analyze over any
// Source — one pipeline call, whether the source is a materialized trace or
// a chunked one — with overhead correction composed in as the pipeline's
// stage. The public facade (package repro) re-exports these names and
// carries the per-option documentation; the serving layer calls them here.
//
// An Engine is immutable after construction and safe for concurrent use,
// though one FromReader source must not be analyzed concurrently.
type Engine struct {
	opts Options // Stage is set per analysis, from cal
	cal  *calib.Calibration
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// NewEngine builds an Engine; nil options are ignored.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{}
	for _, o := range opts {
		if o != nil {
			o(e)
		}
	}
	return e
}

// WithWorkers sets the worker-pool size (<= 0: one per CPU).
func WithWorkers(n int) EngineOption { return func(e *Engine) { e.opts.Workers = n } }

// WithMaxResidentBytes bounds a streaming run's resident decoded events
// (0: unbounded).
func WithMaxResidentBytes(n int64) EngineOption {
	return func(e *Engine) { e.opts.MaxResidentBytes = n }
}

// WithCorrection subtracts calibrated profiling overhead before the sweep.
func WithCorrection(cal *calib.Calibration) EngineOption { return func(e *Engine) { e.cal = cal } }

// WithProgress registers a progress callback.
func WithProgress(fn func(Progress)) EngineOption { return func(e *Engine) { e.opts.Progress = fn } }

// WithProcesses restricts the analysis to the listed processes (none: all).
func WithProcesses(procs ...trace.ProcID) EngineOption {
	return func(e *Engine) { e.opts.Procs = procs }
}

// Report bundles everything one analysis produced.
type Report struct {
	// Results maps each analyzed process to its cross-stack overlap
	// breakdown.
	Results map[trace.ProcID]*overlap.Result
	// Stats describes the schedule (chunks decoded, windows swept, peak
	// residency). Stats.Events counts events read from the source before
	// any correction stage, whatever the source kind; a materialized source
	// has no chunk files, so its chunk counts stay zero. An error mid-way —
	// a cancelled correction pre-pass included — leaves the partial counts
	// here.
	Stats StreamStats
	// Meta is the run metadata the source carried. A corrected analysis
	// reports Config as Uninstrumented, exactly like Correct's output
	// trace: corrected results estimate the uninstrumented run.
	Meta trace.Meta
	// Corrected reports whether the overhead-correction stage ran.
	Corrected bool
}

// Analyze runs the configured analysis over src. It returns as soon as ctx
// is cancelled — draining, never leaking, its worker goroutines — with
// ctx.Err(). On error the returned Report is still non-nil when any work
// was done, carrying the partial Stats (never partial Results), so callers
// can report how far an interrupted analysis got.
func (e *Engine) Analyze(ctx context.Context, src Source) (*Report, error) {
	tr, r := src.tr, src.r
	if tr == nil && r == nil {
		var err error
		if r, err = trace.OpenDir(src.dir); err != nil {
			return nil, err
		}
	}
	opts := e.opts
	var (
		in   source
		meta trace.Meta
	)
	if tr != nil {
		in, meta = newMemSource(tr), tr.Meta
	} else {
		in, meta = readerSource{r}, r.Meta()
	}
	if e.cal != nil {
		meta.Config = trace.Uninstrumented() // see Report.Meta
		if tr != nil {
			opts.Stage = calib.NewCorrector(tr, e.cal)
		} else {
			// Track the pre-pass in StreamStats shape so an error (or
			// cancellation) mid-pre-pass still reports partial progress.
			prepass := StreamStats{Chunks: r.NumChunks()}
			onChunk := func(done, total, events int) {
				prepass.ChunksDecoded, prepass.Events = done, events
				if e.opts.Progress != nil {
					e.opts.Progress(Progress{
						Stage:      StageCorrect,
						ChunksDone: done, Chunks: total, Events: events,
					})
				}
			}
			corr, err := calib.NewStreamCorrector(ctx, r, e.cal, e.opts.Procs, onChunk)
			if err != nil {
				return &Report{Stats: prepass, Meta: meta}, err
			}
			opts.Stage = corr
		}
	}
	results, stats, err := run(ctx, in, opts)
	if err != nil {
		return &Report{Stats: stats, Meta: meta}, err
	}
	return &Report{Results: results, Stats: stats, Meta: meta, Corrected: e.cal != nil}, nil
}
