package calib

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// ValidationResult records one row of the paper's overhead-correction
// validation (Figure 11): the corrected training time of a fully
// instrumented run, compared against an uninstrumented run of the same
// workload.
type ValidationResult struct {
	Workload string
	// Uninstrumented is the ground-truth training time with no profiling.
	Uninstrumented vclock.Duration
	// Instrumented is the raw training time with full profiling enabled.
	Instrumented vclock.Duration
	// Corrected is the instrumented time after overhead correction.
	Corrected vclock.Duration
	// Overheads is the estimated overhead per component (the stacked
	// bars in Figure 11: CUPTI, CUDA API interception, Python↔Backend
	// interception, Python↔Simulator interception, annotations).
	Overheads map[OverheadComponent]vclock.Duration
}

// Bias is the signed relative error of the corrected time versus the
// uninstrumented ground truth. The paper reports |Bias| ≤ 16% across all
// workloads.
func (v ValidationResult) Bias() float64 {
	if v.Uninstrumented == 0 {
		return 0
	}
	return float64(v.Corrected-v.Uninstrumented) / float64(v.Uninstrumented)
}

// RawInflation is how much profiling inflated the uncorrected run
// (the paper observes 1.6×–2.2×, 1.8× on average, for full RL-Scope).
func (v ValidationResult) RawInflation() float64 {
	if v.Uninstrumented == 0 {
		return 0
	}
	return float64(v.Instrumented) / float64(v.Uninstrumented)
}

// String formats the row like the Figure 11 annotations.
func (v ValidationResult) String() string {
	return fmt.Sprintf("%s: uninstrumented=%v corrected=%v bias=%+.1f%% raw-inflation=%.2fx",
		v.Workload, v.Uninstrumented, v.Corrected, 100*v.Bias(), v.RawInflation())
}

// Validate measures correction accuracy for one workload: it calibrates,
// runs uninstrumented, runs fully instrumented, corrects, and compares.
// A fresh seed is used for the validation runs so calibration quality is
// tested out-of-sample, as in the paper (calibration is reused across runs).
func Validate(workload string, run Runner, calibSeed, validateSeed int64) (*ValidationResult, error) {
	cal, err := Calibrate(run, calibSeed)
	if err != nil {
		return nil, fmt.Errorf("calib: validate %s: %w", workload, err)
	}
	return ValidateWith(workload, run, cal, validateSeed)
}

// ValidateWith is Validate with a pre-computed calibration.
func ValidateWith(workload string, run Runner, cal *Calibration, seed int64) (*ValidationResult, error) {
	runs, err := runAll(run, seed, trace.Uninstrumented(), trace.Full())
	if err != nil {
		return nil, fmt.Errorf("calib: validate %s: %w", workload, err)
	}
	base, full := runs[0], runs[1]
	corrected := Correct(full.Trace, cal)
	return &ValidationResult{
		Workload:       workload,
		Uninstrumented: base.Total,
		Instrumented:   full.Total,
		Corrected:      CorrectedTotal(corrected),
		Overheads:      EstimatedOverhead(full.Trace, cal),
	}, nil
}
