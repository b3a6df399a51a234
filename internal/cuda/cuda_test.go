package cuda

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// fakeRecorder is a minimal Recorder for exercising the CUDA runtime without
// the full profiler.
type fakeRecorder struct {
	clock     *vclock.Clock
	events    []trace.Event
	overheads []trace.OverheadKind
	trans     []string
	// inject simulates enabled book-keeping cost per overhead occurrence.
	inject vclock.Duration
}

func newFakeRecorder() *fakeRecorder {
	return &fakeRecorder{clock: vclock.NewAt(0, 1)}
}

func (f *fakeRecorder) Clock() *vclock.Clock { return f.clock }
func (f *fakeRecorder) Emit(e trace.Event)   { f.events = append(f.events, e) }
func (f *fakeRecorder) Overhead(kind trace.OverheadKind, name string) {
	f.overheads = append(f.overheads, kind)
	f.clock.Advance(f.inject)
}
func (f *fakeRecorder) Transition(label string) { f.trans = append(f.trans, label) }
func (f *fakeRecorder) Proc() trace.ProcID      { return 3 }

func exactCosts() Costs {
	return Costs{
		LaunchKernel:      vclock.Exact(10 * vclock.Microsecond),
		MemcpyAsync:       vclock.Exact(6 * vclock.Microsecond),
		Memcpy:            vclock.Exact(8 * vclock.Microsecond),
		StreamSynchronize: vclock.Exact(4 * vclock.Microsecond),
		DeviceSynchronize: vclock.Exact(5 * vclock.Microsecond),
		MemcpyBandwidth:   1e9, // 1 GB/s: 1 byte = 1 ns
	}
}

func (f *fakeRecorder) cpuEvents() []trace.Event {
	var out []trace.Event
	for _, e := range f.events {
		if e.Kind == trace.KindCPU {
			out = append(out, e)
		}
	}
	return out
}

func (f *fakeRecorder) gpuEvents() []trace.Event {
	var out []trace.Event
	for _, e := range f.events {
		if e.Kind == trace.KindGPU {
			out = append(out, e)
		}
	}
	return out
}

func TestLaunchKernelIsAsync(t *testing.T) {
	rec := newFakeRecorder()
	dev := gpu.NewDevice(0)
	ctx := NewContext(rec, dev, exactCosts())

	ctx.LaunchKernel("matmul", 500*vclock.Microsecond)

	// CPU returns after only the API cost, not the kernel duration.
	if got := rec.clock.Now(); got != vclock.Time(10*vclock.Microsecond) {
		t.Fatalf("CPU time after launch = %v, want 10µs", got)
	}
	gpuEvs := rec.gpuEvents()
	if len(gpuEvs) != 1 {
		t.Fatalf("GPU events = %d, want 1", len(gpuEvs))
	}
	if gpuEvs[0].Duration() != 500*vclock.Microsecond {
		t.Fatalf("kernel duration = %v, want 500µs", gpuEvs[0].Duration())
	}
	if gpuEvs[0].End <= vclock.Time(10*vclock.Microsecond) {
		t.Fatal("kernel should complete after the CPU-side launch returns")
	}
}

func TestLaunchEmitsCUDAEvent(t *testing.T) {
	rec := newFakeRecorder()
	ctx := NewContext(rec, gpu.NewDevice(0), exactCosts())
	ctx.LaunchKernel("k", vclock.Microsecond)
	cpuEvs := rec.cpuEvents()
	if len(cpuEvs) != 1 {
		t.Fatalf("CPU events = %d, want 1", len(cpuEvs))
	}
	e := cpuEvs[0]
	if e.Cat != trace.CatCUDA || e.Name != APILaunchKernel || e.Proc != 3 {
		t.Fatalf("CUDA event = %+v", e)
	}
	if e.Duration() != 10*vclock.Microsecond {
		t.Fatalf("CUDA event duration = %v, want 10µs", e.Duration())
	}
}

func TestStreamSynchronizeBlocksUntilWorkDrains(t *testing.T) {
	rec := newFakeRecorder()
	ctx := NewContext(rec, gpu.NewDevice(0), exactCosts())
	ctx.LaunchKernel("k", 2*vclock.Millisecond)
	launchReturn := rec.clock.Now()
	ctx.StreamSynchronize()
	// The kernel was issued at the start of the launch API call and runs
	// 2 ms; sync must block until it drains.
	if got := rec.clock.Now(); got < vclock.Time(2*vclock.Millisecond) {
		t.Fatalf("clock after sync = %v, want >= 2ms", got)
	}
	if rec.clock.Now() <= launchReturn {
		t.Fatal("sync did not advance the clock past the launch return")
	}
}

func TestMemcpyBlocksMemcpyAsyncDoesNot(t *testing.T) {
	const bytes = 1 << 20 // 1 MiB at 1 GB/s ≈ 1.048 ms
	recA := newFakeRecorder()
	ctxA := NewContext(recA, gpu.NewDevice(0), exactCosts())
	ctxA.MemcpyAsync(HostToDevice, bytes)
	asyncT := recA.clock.Now()

	recB := newFakeRecorder()
	ctxB := NewContext(recB, gpu.NewDevice(0), exactCosts())
	ctxB.Memcpy(HostToDevice, bytes)
	syncT := recB.clock.Now()

	if asyncT >= vclock.Time(vclock.Millisecond) {
		t.Fatalf("async memcpy blocked the CPU: %v", asyncT)
	}
	if syncT < vclock.Time(vclock.Millisecond) {
		t.Fatalf("sync memcpy did not block the CPU: %v", syncT)
	}
}

func TestMemcpyEmitsGPUMemcpyEvent(t *testing.T) {
	rec := newFakeRecorder()
	ctx := NewContext(rec, gpu.NewDevice(0), exactCosts())
	ctx.MemcpyAsync(DeviceToHost, 1000)
	evs := rec.gpuEvents()
	if len(evs) != 1 || evs[0].Cat != trace.CatGPUMemcpy || evs[0].Name != "memcpyD2H" {
		t.Fatalf("memcpy GPU event = %+v", evs)
	}
	if evs[0].Duration() != vclock.Microsecond {
		t.Fatalf("1000B at 1GB/s = %v, want 1µs", evs[0].Duration())
	}
}

func TestTransitionAndOverheadHooksFire(t *testing.T) {
	rec := newFakeRecorder()
	ctx := NewContext(rec, gpu.NewDevice(0), exactCosts())
	ctx.LaunchKernel("k", vclock.Microsecond)
	ctx.MemcpyAsync(HostToDevice, 10)

	if len(rec.trans) != 2 || rec.trans[0] != trace.TransBackendToCUDA {
		t.Fatalf("transitions = %v", rec.trans)
	}
	// Each API call fires CUDAIntercept (outside) and CUPTI (inside).
	var hooks, cupti int
	for _, k := range rec.overheads {
		switch k {
		case trace.OverheadCUDAIntercept:
			hooks++
		case trace.OverheadCUPTI:
			cupti++
		}
	}
	if hooks != 2 || cupti != 2 {
		t.Fatalf("hook counts: intercept=%d cupti=%d, want 2/2", hooks, cupti)
	}
}

func TestCUPTIInflationLandsInsideAPICall(t *testing.T) {
	rec := newFakeRecorder()
	rec.inject = 3 * vclock.Microsecond // every overhead occurrence costs 3µs
	ctx := NewContext(rec, gpu.NewDevice(0), exactCosts())
	ctx.LaunchKernel("k", vclock.Microsecond)
	cpuEvs := rec.cpuEvents()
	// The CUDA event must contain the CUPTI injection (base 10µs + 3µs)
	// but not the interception hook, which ran before the call started.
	if got := cpuEvs[0].Duration(); got != 13*vclock.Microsecond {
		t.Fatalf("CUDA event duration = %v, want 13µs (base+CUPTI)", got)
	}
	if cpuEvs[0].Start != vclock.Time(3*vclock.Microsecond) {
		t.Fatalf("CUDA event starts at %v; interception cost must precede it", cpuEvs[0].Start)
	}
}

func TestAPICounts(t *testing.T) {
	rec := newFakeRecorder()
	ctx := NewContext(rec, gpu.NewDevice(0), exactCosts())
	ctx.LaunchKernel("a", 1)
	ctx.LaunchKernel("b", 1)
	ctx.MemcpyAsync(HostToDevice, 1)
	ctx.StreamSynchronize()
	if c := ctx.counts; c[APILaunchKernel] != 2 || c[APIMemcpyAsync] != 1 || c[APIStreamSynchronize] != 1 {
		t.Fatalf("API counts = %v", c)
	}
}

func TestKernelsSerializeOnStream(t *testing.T) {
	rec := newFakeRecorder()
	ctx := NewContext(rec, gpu.NewDevice(0), exactCosts())
	ctx.LaunchKernel("k1", vclock.Millisecond)
	ctx.LaunchKernel("k2", vclock.Millisecond)
	evs := rec.gpuEvents()
	if evs[1].Start != evs[0].End {
		t.Fatalf("k2 starts at %v, want %v (FIFO)", evs[1].Start, evs[0].End)
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" || DeviceToDevice.String() != "D2D" {
		t.Fatal("direction names wrong")
	}
}

// apiNames lists every modelled API.
var apiNames = []string{APILaunchKernel, APIMemcpyAsync, APIMemcpy, APIStreamSynchronize, APIDeviceSynchronize}

func TestCostsFor(t *testing.T) {
	c := DefaultCosts()
	for _, api := range apiNames {
		if c.For(api).Mean <= 0 {
			t.Fatalf("no cost for %s", api)
		}
	}
	if c.For("bogus").Mean != 0 {
		t.Fatal("unknown API should have zero cost")
	}
}

func TestCUPTIInflationCoversAllAPIs(t *testing.T) {
	inf := CUPTIInflation()
	for _, api := range apiNames {
		if inf[api].Mean <= 0 {
			t.Fatalf("no CUPTI inflation for %s", api)
		}
	}
	// Launch inflates more than memcpy, as in the paper's Fig. 10 example.
	if inf[APILaunchKernel].Mean <= inf[APIMemcpyAsync].Mean {
		t.Fatal("launch inflation should exceed memcpy inflation")
	}
}
