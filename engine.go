package rlscope

import (
	"repro/internal/analysis"
	"repro/internal/trace"
)

// Source is one run's worth of events offered to Engine.Analyze: an
// in-memory trace (FromTrace) or chunked on-disk storage streamed with
// bounded memory (FromDir, FromReader). See trace.Source for the contract
// custom sources must meet.
type Source = trace.Source

// TraceReader streams a chunked trace directory lazily: chunk files decode
// one at a time into a reusable buffer and planning metadata is served from
// sidecar indexes. Its methods are not safe for concurrent use.
type TraceReader = trace.Reader

// Meta is run-level metadata stored alongside a trace's event chunks.
type Meta = trace.Meta

// OpenTraceDir opens a chunked trace directory previously written by
// Profiler.WriteTo or rlscope-prof, decoding no events. Wrap the reader
// with FromReader to analyze it.
func OpenTraceDir(dir string) (*TraceReader, error) { return trace.OpenDir(dir) }

// FromTrace returns a Source over an already-materialized trace.
func FromTrace(t *Trace) Source { return trace.FromTrace(t) }

// FromDir returns a streaming Source over a chunked trace directory; the
// directory is opened lazily on first analysis.
func FromDir(dir string) Source { return trace.FromDir(dir) }

// FromReader returns a streaming Source over an open TraceReader.
func FromReader(r *TraceReader) Source { return trace.FromReader(r) }

// Progress is one notification from a running analysis: the pipeline stage
// (analysis.StageCorrect during a streaming correction pre-pass,
// analysis.StageAnalyze otherwise) plus monotonic chunk/shard/event
// counters. Callbacks run on the analyzing goroutine, so they need no
// locking — and cancelling the analysis context from inside one is the
// supported way to stop a run at a precise point.
type Progress = analysis.Progress

// Engine is the composable front end to RL-Scope's offline analysis: one
// cancellable Analyze call over any Source, configured once by functional
// options. The zero configuration (NewEngine with no options) analyzes
// every process with one worker per CPU, unbounded residency, and no
// correction — equivalent to the legacy free functions it supersedes.
//
// An Engine is immutable after construction and safe for concurrent use;
// one Engine can serve many Analyze calls (though a single streaming
// source must not be analyzed concurrently — see FromReader).
type Engine = analysis.Engine

// EngineOption configures an Engine at construction.
type EngineOption = analysis.EngineOption

// NewEngine builds an Engine from functional options; nil options are
// ignored.
func NewEngine(opts ...EngineOption) *Engine { return analysis.NewEngine(opts...) }

// WithWorkers sets the analysis worker-pool size. Zero or negative (the
// default) selects one worker per available CPU; 1 runs strictly
// sequentially, with no goroutines. Results are byte-identical for every
// pool size.
func WithWorkers(n int) EngineOption { return analysis.WithWorkers(n) }

// WithMaxResidentBytes bounds the estimated bytes of decoded events a
// streaming analysis keeps resident; complete window prefixes are finalized
// early to stay under the budget, without changing the result. Zero (the
// default) means unbounded. Materialized sources ignore the budget — the
// whole trace is resident by definition.
func WithMaxResidentBytes(n int64) EngineOption { return analysis.WithMaxResidentBytes(n) }

// WithCorrection makes the analysis subtract calibrated profiling overhead
// (paper §3.4) before computing overlaps. Materialized sources correct via
// Correct; streaming sources correct each event in flight — a pre-pass
// collects the overhead markers' calibrated costs, then the analysis pass
// streams under the usual memory budget. Both produce breakdowns
// byte-identical to Correct-then-Analyze on the materialized trace.
func WithCorrection(cal *Calibration) EngineOption { return analysis.WithCorrection(cal) }

// WithProgress registers a callback receiving progress notifications (per
// chunk for streaming sources, per pipeline stage otherwise).
func WithProgress(fn func(Progress)) EngineOption { return analysis.WithProgress(fn) }

// WithProcesses restricts the analysis to the listed processes. Streaming
// analyses additionally skip decoding chunks that contribute to none of
// them. No arguments (the default) analyzes every process.
func WithProcesses(procs ...ProcID) EngineOption { return analysis.WithProcesses(procs...) }

// Report bundles everything one analysis produced: the per-process Results,
// the streaming schedule's Stats, the run Meta the source carried (Config
// reads Uninstrumented after correction), and whether correction ran.
type Report = analysis.Report
