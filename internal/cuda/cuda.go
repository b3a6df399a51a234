// Package cuda simulates the CUDA runtime API surface that ML backends call
// into, together with the CUPTI profiling behaviour RL-Scope must calibrate
// away.
//
// Two properties of the real CUDA runtime matter to the paper and are
// modelled here:
//
//  1. Every API call costs CPU time on the calling thread, separate from the
//     GPU time of the work it enqueues. For RL's small kernels, CPU-side API
//     time exceeds GPU kernel time (paper F.8: 3.6× on average).
//  2. When CUPTI activity collection is enabled, closed-source code inside
//     the CUDA library inflates each API call by an API-specific amount.
//     The inflation cannot be toggled per-API, which is why the paper needs
//     difference-of-average calibration (Appendix C.2).
//
// A Context is a per-process handle. Hooks for the profiler (librlscope's
// transparent CUPTI-callback interception, §3.2) are injected through the
// Recorder interface so the runtime itself needs no recompilation — the
// same property the paper claims for real ML backends.
package cuda

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// CUDA API names, used for per-API cost modelling, CUPTI inflation
// calibration, and trace labels.
const (
	APILaunchKernel      = "cudaLaunchKernel"
	APIMemcpyAsync       = "cudaMemcpyAsync"
	APIMemcpy            = "cudaMemcpy"
	APIStreamSynchronize = "cudaStreamSynchronize"
	APIDeviceSynchronize = "cudaDeviceSynchronize"
)

// Direction of a memory copy.
type Direction uint8

// Memcpy directions.
const (
	HostToDevice Direction = iota
	DeviceToHost
	DeviceToDevice
)

// String returns the CUDA-style direction name.
func (d Direction) String() string {
	switch d {
	case HostToDevice:
		return "H2D"
	case DeviceToHost:
		return "D2H"
	case DeviceToDevice:
		return "D2D"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Recorder is the profiler-facing hook surface. The profiler's per-process
// session implements it; an inert implementation is used when profiling is
// off. Methods are invoked on the simulated process's own goroutine.
type Recorder interface {
	// Clock returns the process's virtual clock.
	Clock() *vclock.Clock
	// Emit records one trace event.
	Emit(e trace.Event)
	// Overhead runs one book-keeping occurrence of the given kind: if the
	// corresponding profiler feature is enabled it advances the clock by
	// the (hidden, stochastic) true cost and emits a marker event.
	Overhead(kind trace.OverheadKind, name string)
	// Transition records one language-transition marker.
	Transition(label string)
	// Proc identifies the process.
	Proc() trace.ProcID
}

// Costs models the CPU-side base duration of each CUDA API call.
type Costs struct {
	LaunchKernel      vclock.Dist
	MemcpyAsync       vclock.Dist
	Memcpy            vclock.Dist // fixed part; transfer adds bytes/bandwidth
	StreamSynchronize vclock.Dist // fixed part; blocking wait adds the rest
	DeviceSynchronize vclock.Dist
	// MemcpyBandwidth is bytes per second over PCIe for host/device copies.
	MemcpyBandwidth float64
}

// DefaultCosts returns CPU-side API costs calibrated to reproduce the
// paper's observed CUDA-API-dominance for small RL kernels.
func DefaultCosts() Costs {
	return Costs{
		LaunchKernel:      vclock.Jittered(8*vclock.Microsecond, 0.25),
		MemcpyAsync:       vclock.Jittered(6*vclock.Microsecond, 0.25),
		Memcpy:            vclock.Jittered(10*vclock.Microsecond, 0.25),
		StreamSynchronize: vclock.Jittered(4*vclock.Microsecond, 0.25),
		DeviceSynchronize: vclock.Jittered(5*vclock.Microsecond, 0.25),
		MemcpyBandwidth:   12e9, // ~12 GB/s effective PCIe 3.0 x16
	}
}

// For returns the base-cost distribution for the named API.
func (c Costs) For(api string) vclock.Dist {
	switch api {
	case APILaunchKernel:
		return c.LaunchKernel
	case APIMemcpyAsync:
		return c.MemcpyAsync
	case APIMemcpy:
		return c.Memcpy
	case APIStreamSynchronize:
		return c.StreamSynchronize
	case APIDeviceSynchronize:
		return c.DeviceSynchronize
	default:
		return vclock.Dist{}
	}
}

// CUPTIInflation maps API name → extra CPU time added inside the CUDA
// library per call when CUPTI activity collection is enabled. The defaults
// follow the paper's Appendix C.2 worked example: cudaLaunchKernel inflates
// about 3 µs per call and cudaMemcpyAsync about 1 µs.
func CUPTIInflation() map[string]vclock.Dist {
	return map[string]vclock.Dist{
		APILaunchKernel:      vclock.Jittered(5*vclock.Microsecond, 0.3),
		APIMemcpyAsync:       vclock.Jittered(1500*vclock.Nanosecond, 0.3),
		APIMemcpy:            vclock.Jittered(2*vclock.Microsecond, 0.3),
		APIStreamSynchronize: vclock.Jittered(1200*vclock.Nanosecond, 0.3),
		APIDeviceSynchronize: vclock.Jittered(1200*vclock.Nanosecond, 0.3),
	}
}

// Context is a per-process CUDA runtime handle bound to one device stream.
type Context struct {
	rec    Recorder
	dev    *gpu.Device
	stream gpu.StreamID
	costs  Costs

	// lastEnd is the completion time of the most recently submitted work
	// from this context; Synchronize waits for it.
	lastEnd vclock.Time

	// counts tracks API invocations per API name.
	counts map[string]int
}

// NewContext binds a process (via its Recorder) to a device, allocating a
// dedicated stream.
func NewContext(rec Recorder, dev *gpu.Device, costs Costs) *Context {
	return &Context{
		rec:    rec,
		dev:    dev,
		stream: dev.NewStream(),
		costs:  costs,
		counts: map[string]int{},
	}
}

// apiCall wraps one CUDA API invocation: librlscope's interception hook runs
// outside the call (its cost lands in the caller's Backend time), the base
// API cost and any CUPTI inflation run inside, and a CatCUDA CPU event spans
// the call.
func (c *Context) apiCall(api string, body func(issue vclock.Time)) {
	c.counts[api]++
	c.rec.Transition(trace.TransBackendToCUDA)
	c.rec.Overhead(trace.OverheadCUDAIntercept, api)
	clk := c.rec.Clock()
	start := clk.Now()
	clk.Advance(c.costs.For(api).Sample(clk.Rand()))
	c.rec.Overhead(trace.OverheadCUPTI, api)
	if body != nil {
		body(start)
	}
	c.rec.Emit(trace.Event{
		Kind:  trace.KindCPU,
		Cat:   trace.CatCUDA,
		Proc:  c.rec.Proc(),
		Start: start,
		End:   clk.Now(),
		Name:  api,
	})
}

// LaunchKernel enqueues a kernel with the given device duration. The call
// returns after the CPU-side API cost; the kernel runs asynchronously.
func (c *Context) LaunchKernel(name string, gpuDur vclock.Duration) {
	c.apiCall(APILaunchKernel, func(issue vclock.Time) {
		start, end := c.dev.Submit(c.rec.Proc(), c.stream, issue, gpuDur, name, trace.CatGPUKernel)
		if end > c.lastEnd {
			c.lastEnd = end
		}
		c.rec.Emit(trace.Event{
			Kind:  trace.KindGPU,
			Cat:   trace.CatGPUKernel,
			Proc:  c.rec.Proc(),
			Start: start,
			End:   end,
			Name:  name,
		})
	})
}

// transferDur converts a byte count to device copy time.
func (c *Context) transferDur(bytes int) vclock.Duration {
	if bytes <= 0 || c.costs.MemcpyBandwidth <= 0 {
		return vclock.Microsecond
	}
	d := vclock.Duration(float64(bytes) / c.costs.MemcpyBandwidth * float64(vclock.Second))
	if d < vclock.Microsecond {
		d = vclock.Microsecond
	}
	return d
}

// MemcpyAsync enqueues an asynchronous copy of the given size and returns
// after the CPU-side API cost.
func (c *Context) MemcpyAsync(dir Direction, bytes int) {
	c.apiCall(APIMemcpyAsync, func(issue vclock.Time) {
		name := "memcpy" + dir.String()
		start, end := c.dev.Submit(c.rec.Proc(), c.stream, issue, c.transferDur(bytes), name, trace.CatGPUMemcpy)
		if end > c.lastEnd {
			c.lastEnd = end
		}
		c.rec.Emit(trace.Event{
			Kind:  trace.KindGPU,
			Cat:   trace.CatGPUMemcpy,
			Proc:  c.rec.Proc(),
			Start: start,
			End:   end,
			Name:  name,
		})
	})
}

// Memcpy performs a synchronous copy: the CPU blocks inside the API call
// until the device completes the transfer.
func (c *Context) Memcpy(dir Direction, bytes int) {
	c.apiCall(APIMemcpy, func(issue vclock.Time) {
		name := "memcpy" + dir.String()
		start, end := c.dev.Submit(c.rec.Proc(), c.stream, issue, c.transferDur(bytes), name, trace.CatGPUMemcpy)
		if end > c.lastEnd {
			c.lastEnd = end
		}
		c.rec.Emit(trace.Event{
			Kind:  trace.KindGPU,
			Cat:   trace.CatGPUMemcpy,
			Proc:  c.rec.Proc(),
			Start: start,
			End:   end,
			Name:  name,
		})
		c.rec.Clock().AdvanceTo(end)
	})
}

// StreamSynchronize blocks the CPU inside the API call until all work
// submitted by this context completes.
func (c *Context) StreamSynchronize() {
	c.apiCall(APIStreamSynchronize, func(issue vclock.Time) {
		c.rec.Clock().AdvanceTo(c.lastEnd)
	})
}
