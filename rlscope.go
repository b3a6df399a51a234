// Package rlscope is the public API of the RL-Scope reproduction: a
// cross-stack profiler for deep reinforcement learning workloads that
// scopes low-level CPU/GPU resource usage to high-level algorithmic
// operations and corrects for profiling overhead (Gleeson et al.,
// MLSys 2021).
//
// # Profiling a workload
//
// Create a Profiler, open a Session per simulated process, annotate the
// training loop with operations, and let the interception wrappers record
// everything else:
//
//	p := rlscope.New(rlscope.Options{Workload: "my-agent", Flags: rlscope.FullInstrumentation()})
//	sess := p.NewProcess("trainer", -1, 0)
//	sess.SetPhase("training")
//	sess.WithOperation("inference", func() { ... })
//	sess.WithOperation("simulation", func() {
//	        sess.CallSimulator("env.step", func() { ... })
//	})
//	sess.Close()
//	tr := p.MustTrace()
//	err := p.WriteTo(dir) // persist the run; this ends it, so trace first
//
// # Analysis
//
// Engine is the single analysis entry point: a cancellable, composable
// query over any trace Source, computing the cross-stack event overlap per
// process — the paper's §3.3 algorithm — attributing every interval of the
// critical path to (operation, {CPU, GPU, CPU+GPU}, stack tier):
//
//	eng := rlscope.NewEngine(rlscope.WithWorkers(4))
//	report, err := eng.Analyze(ctx, rlscope.FromTrace(tr))
//	// report.Results[proc] is the per-process breakdown
//
// Sources decouple what is analyzed from how it is stored: FromTrace wraps
// an in-memory trace, while FromDir and FromReader stream a chunked trace
// directory without materializing it, keeping residency under
// WithMaxResidentBytes. Results are byte-identical across sources, worker
// counts, and memory budgets.
//
// # Overhead calibration and correction
//
// Calibrate measures the profiler's own book-keeping costs by profiling one
// seed of a workload under five feature subsets (delta calibration plus
// difference-of-average calibration for per-CUDA-API CUPTI inflation), and
// correction subtracts them from a trace at the points where they occurred
// (§3.4, Appendix C). Composed into the Engine, correction runs as a
// streaming stage — corrected breakdowns under a memory budget, without
// ever materializing the corrected trace:
//
//	cal, err := rlscope.Calibrate(runner, seed)
//	eng := rlscope.NewEngine(rlscope.WithCorrection(cal), rlscope.WithMaxResidentBytes(1<<20))
//	report, err := eng.Analyze(ctx, rlscope.FromDir(traceDir))
//
// The examples/ directory contains runnable programs; cmd/ contains the
// rls-prof-style CLI tools; the client package streams traces into a live
// rlscope-serve instance; DESIGN.md maps every paper experiment to the
// module that regenerates it.
package rlscope

import (
	"repro/internal/analysis"
	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Core profiler types.
type (
	// Profiler owns one profiled run across simulated processes.
	Profiler = profiler.Profiler
	// Session is the per-process recording context (annotations,
	// interception wrappers, the CUDA-hook surface).
	Session = profiler.Session
	// Options configures a run (workload label, feature flags, seed).
	Options = profiler.Options
	// OverheadModel is the hidden true cost of each book-keeping path.
	OverheadModel = profiler.OverheadModel
	// Op is an open operation annotation.
	Op = profiler.Op
)

// Trace types.
type (
	// Trace is a collected event trace.
	Trace = trace.Trace
	// Event is one trace record.
	Event = trace.Event
	// FeatureFlags selects which book-keeping paths are enabled.
	FeatureFlags = trace.FeatureFlags
	// ProcID identifies a simulated process.
	ProcID = trace.ProcID
	// OverheadKind classifies profiler book-keeping markers; each kind is
	// calibrated separately (paper Appendix C.1/C.2).
	OverheadKind = trace.OverheadKind
)

// Analysis types.
type (
	// Result is one process's cross-stack overlap breakdown.
	Result = overlap.Result
	// Calibration holds calibrated book-keeping costs.
	Calibration = calib.Calibration
	// RunStats is what one run exposes to calibration.
	RunStats = calib.RunStats
	// Runner runs one seed of a workload under each of the given flag
	// sets for calibration.
	Runner = calib.Runner
	// ValidationResult reports correction accuracy for one workload.
	ValidationResult = calib.ValidationResult
)

// Time types (virtual time; see DESIGN.md for why the clock is simulated).
type (
	// Time is a point in virtual time.
	Time = vclock.Time
	// Duration is a span of virtual time.
	Duration = vclock.Duration
)

// New creates a profiler for one run.
func New(opts Options) *Profiler { return profiler.New(opts) }

// FullInstrumentation returns flags with every book-keeping path enabled —
// a normal profiled run.
func FullInstrumentation() FeatureFlags { return trace.Full() }

// Uninstrumented returns flags with all book-keeping disabled — the
// baseline configuration calibration compares against.
func Uninstrumented() FeatureFlags { return trace.Uninstrumented() }

// DefaultOverheads returns the standard book-keeping cost model.
func DefaultOverheads() OverheadModel { return profiler.DefaultOverheads() }

// StreamStats reports what a streaming analysis read, scheduled, and kept
// resident (see Report.Stats).
type StreamStats = analysis.StreamStats

// TraceDirDigest returns the SHA-256 content digest identifying a chunked
// trace directory: a hash over its metadata, chunk files, and sidecar
// indexes. Equal digests mean byte-identical traces, which is what lets
// rlscope-serve address cached analysis reports by (digest, options).
func TraceDirDigest(dir string) (string, error) { return trace.DirDigest(dir) }

// Calibrate measures the mean cost of each profiler book-keeping path by
// profiling one seed of the workload under five feature subsets (paper
// Appendix C): run is asked once, for all five.
func Calibrate(run Runner, seed int64) (*Calibration, error) { return calib.Calibrate(run, seed) }

// Correct subtracts calibrated overhead from a trace at the precise points
// where book-keeping occurred (paper §3.4), materializing the corrected
// trace. To analyze corrected results without materializing them, configure
// an Engine with WithCorrection instead.
func Correct(t *Trace, cal *Calibration) *Trace { return calib.Correct(t, cal) }

// Validate measures correction accuracy for a workload: calibrate, run
// uninstrumented and instrumented, correct, compare (paper Figure 11).
func Validate(workload string, run Runner, calibSeed, validateSeed int64) (*ValidationResult, error) {
	return calib.Validate(workload, run, calibSeed, validateSeed)
}

// StatsFromTrace derives calibration inputs from a collected trace: the
// feature flags the run used, the profiler's per-OverheadKind occurrence
// counters, and the run's total training time.
func StatsFromTrace(t *Trace, flags FeatureFlags, counts map[OverheadKind]int, total Duration) *RunStats {
	return calib.StatsFromTrace(t, flags, counts, total)
}
