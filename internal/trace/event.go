// Package trace defines RL-Scope's cross-stack event model and its on-disk
// trace format.
//
// A trace is a set of timestamped events collected from one training run:
//
//   - CPU events: execution in one tier of the software stack (high-level
//     "Python" driver code, simulator, ML backend, CUDA API calls).
//   - GPU events: kernel executions and memory copies on the device.
//   - Operation annotations: the user's high-level algorithmic operations
//     (e.g. "backpropagation"), arbitrarily nested (paper §3.1).
//   - Phase annotations: coarse training phases (e.g. "data_collection").
//   - Overhead markers: points where profiler book-keeping code ran; offline
//     analysis subtracts the calibrated mean cost at exactly these points
//     (paper §3.4, Appendix C).
//   - Transition markers: high-level↔native language transitions
//     (Python→Backend, Python→Simulator, Backend→CUDA), counted per
//     operation for Figures 4c/4d.
//
// Traces are stored in chunked binary files written asynchronously, off the
// training critical path (paper Appendix A.1).
package trace

import (
	"fmt"

	"repro/internal/vclock"
)

// ProcID identifies one simulated process within a run. Process 0 is the
// main training process; Minigo self-play workers get their own IDs.
type ProcID int32

// EventKind distinguishes the classes of events in a trace.
type EventKind uint8

// Event kinds.
const (
	// KindCPU is CPU-side execution in some stack tier (Category).
	KindCPU EventKind = iota + 1
	// KindGPU is device-side execution (kernel or memcpy).
	KindGPU
	// KindOp is a high-level algorithmic operation annotation.
	KindOp
	// KindPhase is a training-phase annotation.
	KindPhase
	// KindOverhead is a zero-width marker recording that profiler
	// book-keeping code ran at this instant.
	KindOverhead
	// KindTransition is a zero-width marker recording one
	// high-level↔native transition.
	KindTransition
)

// String returns the lowercase name of the kind.
func (k EventKind) String() string {
	switch k {
	case KindCPU:
		return "cpu"
	case KindGPU:
		return "gpu"
	case KindOp:
		return "op"
	case KindPhase:
		return "phase"
	case KindOverhead:
		return "overhead"
	case KindTransition:
		return "transition"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Category is the stack tier a CPU or GPU event belongs to. The categories
// match the paper's breakdown legend: Simulator, Python, CUDA, Backend for
// CPU time, plus GPU kernels and memory copies for device time.
type Category uint8

// Categories.
const (
	CatNone Category = iota
	// CatPython is time in high-level driver code (the paper's "Python").
	CatPython
	// CatSimulator is CPU time inside simulator native libraries.
	CatSimulator
	// CatBackend is CPU time inside the ML backend's native library.
	CatBackend
	// CatCUDA is CPU time inside CUDA API calls (e.g. cudaLaunchKernel).
	CatCUDA
	// CatGPUKernel is device time executing a kernel.
	CatGPUKernel
	// CatGPUMemcpy is device time executing a memory copy.
	CatGPUMemcpy
	// CatNetwork is CPU time spent in cross-host communication: the
	// sender serializing and writing a message, or the receiver blocked
	// waiting for and deserializing one. Distributed actor/learner
	// workloads emit these around every send/recv so network-wait shows
	// up as a first-class resource next to CPU and GPU time.
	CatNetwork
)

// String returns the display name used in reports, matching the paper's
// figure legends.
func (c Category) String() string {
	switch c {
	case CatNone:
		return "none"
	case CatPython:
		return "Python"
	case CatSimulator:
		return "Simulator"
	case CatBackend:
		return "Backend"
	case CatCUDA:
		return "CUDA"
	case CatGPUKernel:
		return "GPU kernel"
	case CatGPUMemcpy:
		return "GPU memcpy"
	case CatNetwork:
		return "Network"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// IsCPU reports whether the category is a CPU-side tier.
func (c Category) IsCPU() bool {
	switch c {
	case CatPython, CatSimulator, CatBackend, CatCUDA, CatNetwork:
		return true
	}
	return false
}

// IsGPU reports whether the category is device-side.
func (c Category) IsGPU() bool { return c == CatGPUKernel || c == CatGPUMemcpy }

// CPURank orders CPU categories by stack depth for innermost-wins
// attribution during the overlap sweep. In a single-threaded process the
// tiers nest strictly: Python calls into Simulator or Backend, and Backend
// calls into the CUDA API. Higher rank means deeper (wins attribution).
func (c Category) CPURank() int {
	switch c {
	case CatPython:
		return 1
	case CatSimulator, CatBackend, CatNetwork:
		return 2
	case CatCUDA:
		return 3
	default:
		return 0
	}
}

// OverheadKind classifies profiler book-keeping markers. Each kind is
// calibrated separately (paper Appendix C.1/C.2).
type OverheadKind uint8

// Overhead kinds.
const (
	OverheadNone OverheadKind = iota
	// OverheadAnnotation is the cost of recording an operation
	// start/end timestamp pair.
	OverheadAnnotation
	// OverheadInterception is the cost of intercepting one
	// high-level↔native transition.
	OverheadInterception
	// OverheadCUDAIntercept is the cost of librlscope's CUDA API hook
	// around one CUDA call.
	OverheadCUDAIntercept
	// OverheadCUPTI is inflation added *inside* the closed-source CUDA
	// library when CUPTI profiling is enabled. Unlike the other kinds its
	// magnitude depends on which CUDA API was called, so it is calibrated
	// with difference-of-average rather than delta calibration.
	OverheadCUPTI
)

// String returns the name used in calibration reports.
func (k OverheadKind) String() string {
	switch k {
	case OverheadNone:
		return "none"
	case OverheadAnnotation:
		return "Python annotation"
	case OverheadInterception:
		return "Python interception"
	case OverheadCUDAIntercept:
		return "CUDA API interception"
	case OverheadCUPTI:
		return "CUPTI"
	default:
		return fmt.Sprintf("OverheadKind(%d)", uint8(k))
	}
}

// Event is one record in a trace. Point events (markers) have Start == End.
type Event struct {
	Kind     EventKind
	Cat      Category     // for KindCPU / KindGPU
	Overhead OverheadKind // for KindOverhead
	Proc     ProcID
	Start    vclock.Time
	End      vclock.Time
	// Name is the operation name (KindOp), phase name (KindPhase), kernel
	// or API name (KindGPU, KindOverhead with CUPTI), or the transition
	// label such as "Python→Backend" (KindTransition).
	Name string
}

// Duration returns the event's extent in virtual time.
func (e Event) Duration() vclock.Duration { return e.End.Sub(e.Start) }

// IsPoint reports whether the event is a zero-width marker.
func (e Event) IsPoint() bool { return e.Start == e.End }

// OverlapsWindow reports whether the event intersects the half-open
// analysis window [lo, hi): interval events by extent, point markers by
// membership of their instant. Every analysis path routes events to windows
// and cuts windows with this one predicate.
func OverlapsWindow(e Event, lo, hi vclock.Time) bool {
	if e.IsPoint() {
		return lo <= e.Start && e.Start < hi
	}
	return e.End > lo && e.Start < hi
}

// DeadBefore reports whether the event ends strictly before lo and so can
// overlap neither a window starting at lo nor any later one: a cut at lo
// drops it and carries the still-open intervals forward.
func DeadBefore(e Event, lo vclock.Time) bool {
	if e.IsPoint() {
		return e.Start < lo
	}
	return e.End <= lo
}

// Validate checks the internal consistency of a single event.
func (e Event) Validate() error {
	if e.End < e.Start {
		return fmt.Errorf("trace: event %q ends (%v) before it starts (%v)", e.Name, e.End, e.Start)
	}
	switch e.Kind {
	case KindCPU:
		if !e.Cat.IsCPU() {
			return fmt.Errorf("trace: CPU event %q has non-CPU category %v", e.Name, e.Cat)
		}
	case KindGPU:
		if !e.Cat.IsGPU() {
			return fmt.Errorf("trace: GPU event %q has non-GPU category %v", e.Name, e.Cat)
		}
	case KindOp, KindPhase:
		if e.Name == "" {
			return fmt.Errorf("trace: %v event with empty name", e.Kind)
		}
	case KindOverhead:
		if e.Overhead == OverheadNone {
			return fmt.Errorf("trace: overhead event with no overhead kind")
		}
	case KindTransition:
		if e.Name == "" {
			return fmt.Errorf("trace: transition event with empty label")
		}
	default:
		return fmt.Errorf("trace: unknown event kind %d", uint8(e.Kind))
	}
	return nil
}

// Transition labels recorded by the interception layer. The counts of these
// markers per operation reproduce Figures 4c and 4d.
const (
	TransPythonToBackend   = "Python→Backend"
	TransPythonToSimulator = "Python→Simulator"
	TransBackendToCUDA     = "Backend→CUDA"
)
