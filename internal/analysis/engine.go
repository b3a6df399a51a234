package analysis

import (
	"context"
	"errors"

	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/trace"
)

// Engine is the one way to run an analysis: a cancellable Analyze over any
// trace.Source — one pipeline call, whether the source is a materialized
// trace or a chunked one — with overhead correction composed in as a stage.
// The public facade (package repro) re-exports these names and carries the
// per-option documentation; the serving layer and the metric bundles call
// them here.
//
// An Engine is immutable after construction and safe for concurrent use,
// though one streaming source must not be analyzed concurrently (see
// trace.FromReader).
type Engine struct {
	workers     int
	maxResident int64
	cal         *calib.Calibration
	progress    func(Progress)
	procs       []trace.ProcID
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
func WithWorkers(n int) EngineOption { return func(e *Engine) { e.workers = n } }

// WithMaxResidentBytes bounds a streaming run's resident decoded events
// (0: unbounded).
func WithMaxResidentBytes(n int64) EngineOption { return func(e *Engine) { e.maxResident = n } }

// WithCorrection subtracts calibrated profiling overhead before the sweep.
func WithCorrection(cal *calib.Calibration) EngineOption { return func(e *Engine) { e.cal = cal } }

// WithProgress registers a progress callback.
func WithProgress(fn func(Progress)) EngineOption { return func(e *Engine) { e.progress = fn } }

// WithProcesses restricts the analysis to the listed processes (none: all).
func WithProcesses(procs ...trace.ProcID) EngineOption { return func(e *Engine) { e.procs = procs } }

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
func (e *Engine) Analyze(ctx context.Context, src trace.Source) (*Report, error) {
	if src == nil {
		return nil, errors.New("rlscope: Engine.Analyze: nil source")
	}
	tr, r, err := src.Open()
	if err != nil {
		return nil, err
	}
	workers := e.workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	opts := Options{
		Workers:          workers,
		MaxResidentBytes: e.maxResident,
		Procs:            e.procs,
		Progress:         e.progress,
	}
	var (
		in   source
		meta trace.Meta
	)
	switch {
	case tr != nil:
		in, meta = newMemSource(tr), tr.Meta
	case r != nil:
		in, meta = readerSource{r}, r.Meta()
	default:
		return nil, errors.New("rlscope: source resolved to neither a trace nor a reader")
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
				if e.progress != nil {
					e.progress(Progress{
						Stage:      StageCorrect,
						ChunksDone: done, Chunks: total, Events: events,
					})
				}
			}
			corr, err := calib.NewStreamCorrector(ctx, r, e.cal, e.procs, onChunk)
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
