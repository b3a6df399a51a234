// Package backend simulates the ML backends RL frameworks are built on,
// faithfully reproducing the execution-model differences the paper's
// framework study (§4.1) measures:
//
//   - Graph (TensorFlow 1.x-style, used by stable-baselines): the driver
//     declares a computation once and runs it with a single session.run
//     call per step; high-level glue executes inside the backend.
//   - Autograph (TensorFlow 2, tf-agents): like Graph, with Python control
//     flow compiled in-graph — near-zero Python→Backend transitions, but an
//     anomalous per-op Backend-time inflation in inference (paper F.6) and
//     a loop-entry cost that must be amortized over consecutive simulator
//     steps (paper F.5).
//   - Eager TensorFlow (tf-agents eager): every operator is dispatched from
//     Python as its own backend call, with a high per-call cost.
//   - Eager PyTorch (ReAgent): per-operator dispatch too, but with a much
//     cheaper call path and fused dense kernels, so fewer transitions and
//     less overhead per step (paper F.3).
//
// Each primitive still executes real math (internal/nn) on the host; the
// backend charges virtual CPU/GPU time around it and issues simulated CUDA
// calls, so a profiled run produces the full cross-stack event structure.
package backend

import (
	"fmt"

	"repro/internal/vclock"
)

// ExecModel selects the execution model.
type ExecModel uint8

// Execution models (Table 1's rows).
const (
	Graph ExecModel = iota
	Autograph
	EagerTF
	EagerPyTorch
)

// String returns the display name used in Table 1 and Figure 4.
func (m ExecModel) String() string {
	switch m {
	case Graph:
		return "TensorFlow Graph"
	case Autograph:
		return "TensorFlow Autograph"
	case EagerTF:
		return "TensorFlow Eager"
	case EagerPyTorch:
		return "PyTorch Eager"
	default:
		return fmt.Sprintf("ExecModel(%d)", uint8(m))
	}
}

// BackendName returns the ML backend implementing the model.
func (m ExecModel) BackendName() string {
	if m == EagerPyTorch {
		return "PyTorch 1.6.0"
	}
	return "TensorFlow 2.2.0"
}

// Framework returns the RL framework the paper pairs with the model
// (Table 1).
func (m ExecModel) Framework() string {
	switch m {
	case Graph:
		return "stable-baselines"
	case Autograph, EagerTF:
		return "tf-agents"
	case EagerPyTorch:
		return "ReAgent"
	default:
		return "unknown"
	}
}

// Eager reports whether the model dispatches per-operator from the driver.
func (m ExecModel) Eager() bool { return m == EagerTF || m == EagerPyTorch }

// CompKind classifies a computation for cost modelling; the Autograph
// inference anomaly (F.6) applies only to inference computations.
type CompKind uint8

// Computation kinds.
const (
	KindOther CompKind = iota
	KindInference
	KindBackprop
)

// CostModel holds the execution model's timing parameters.
type CostModel struct {
	// PyGlue is driver-side Python time: per primitive in eager models
	// (the interpreter walking the op statements), per computation in
	// graph models (feed-dict marshaling, fetch unpacking).
	PyGlue vclock.Dist
	// CallOverhead is backend-side cost paid once per Python→Backend
	// call (dispatch, argument conversion).
	CallOverhead vclock.Dist
	// OpDispatch is backend-side cost per primitive op (graph-node
	// execution or eager kernel dispatch).
	OpDispatch vclock.Dist
	// InferenceOpFactor scales OpDispatch inside inference computations —
	// 1.0 everywhere except Autograph's anomaly (paper F.6).
	InferenceOpFactor float64
	// FuseDense reports whether a dense layer executes as one fused
	// kernel (PyTorch) instead of matmul+bias+activation.
	FuseDense bool
	// KernelBase and Throughput convert op FLOPs into GPU kernel time:
	// dur = KernelBase + flops/Throughput.
	KernelBase vclock.Duration
	Throughput float64
	// LoopEntry is the cost of entering an in-graph data-collection loop
	// (Autograph only); paid once per entry and amortized over the
	// consecutive simulator steps inside (paper F.5).
	LoopEntry vclock.Dist
}

// Costs returns the calibrated cost model for the execution model. The
// magnitudes are chosen so the paper's framework findings hold:
// F.1 (Eager 1.9–4.8× slower), F.2 (Autograph minimizes Python),
// F.3 (PyTorch Eager ≈2.3× faster than TF Eager), F.6 (Autograph inference
// Backend-time ≈4× Graph), F.8 (CUDA API ≈3.6× GPU kernel time).
func (m ExecModel) Costs() CostModel {
	base := CostModel{
		InferenceOpFactor: 1.0,
		KernelBase:        1700 * vclock.Nanosecond,
		Throughput:        0.5e12, // effective FLOP/s for tiny RL kernels
	}
	switch m {
	case Graph:
		base.PyGlue = vclock.Jittered(200*vclock.Microsecond, 0.15)
		base.CallOverhead = vclock.Jittered(45*vclock.Microsecond, 0.2)
		base.OpDispatch = vclock.Jittered(2500*vclock.Nanosecond, 0.25)
	case Autograph:
		base.PyGlue = vclock.Jittered(10*vclock.Microsecond, 0.2)
		base.CallOverhead = vclock.Jittered(45*vclock.Microsecond, 0.2)
		base.OpDispatch = vclock.Jittered(2700*vclock.Nanosecond, 0.25)
		base.InferenceOpFactor = 5.5
		base.LoopEntry = vclock.Jittered(900*vclock.Microsecond, 0.2)
	case EagerTF:
		base.PyGlue = vclock.Jittered(12*vclock.Microsecond, 0.2)
		base.CallOverhead = vclock.Jittered(40*vclock.Microsecond, 0.2)
		base.OpDispatch = vclock.Jittered(6*vclock.Microsecond, 0.25)
	case EagerPyTorch:
		base.PyGlue = vclock.Jittered(10*vclock.Microsecond, 0.2)
		base.CallOverhead = vclock.Jittered(24*vclock.Microsecond, 0.2)
		base.OpDispatch = vclock.Jittered(4*vclock.Microsecond, 0.25)
		base.FuseDense = true
	}
	return base
}

// KernelDur converts an op's FLOP count into simulated kernel time.
func (c CostModel) KernelDur(flops float64) vclock.Duration {
	if c.Throughput <= 0 {
		return c.KernelBase
	}
	return c.KernelBase + vclock.Duration(flops/c.Throughput*float64(vclock.Second))
}
