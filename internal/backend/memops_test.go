package backend

import (
	"math/rand"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/nn"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vclock"
)

func newBench(t *testing.T, model ExecModel) (*Backend, *profiler.Profiler, *profiler.Session) {
	t.Helper()
	p := profiler.New(profiler.Options{Workload: "memops", Flags: trace.Uninstrumented(), Seed: 21})
	s := p.NewProcess("t", -1, 0)
	ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
	return New(s, ctx, model), p, s
}

func memcpyEvents(tr *trace.Trace) (async, sync int) {
	for _, e := range tr.Events {
		if e.Kind == trace.KindCPU && e.Cat == trace.CatCUDA {
			switch e.Name {
			case cuda.APIMemcpyAsync:
				async++
			case cuda.APIMemcpy:
				sync++
			}
		}
	}
	return async, sync
}

func TestFeedFetchUseAsyncCopies(t *testing.T) {
	b, p, s := newBench(t, Graph)
	x := nn.NewTensor(4, 4)
	b.Compute("c", KindOther, func(c *Comp) {
		c.Feed(x)
		c.Fetch(x)
	})
	s.Close()
	async, syncN := memcpyEvents(p.MustTrace())
	if async != 2 || syncN != 0 {
		t.Fatalf("async=%d sync=%d, want 2/0", async, syncN)
	}
}

func TestFetchSyncUsesBlockingCopyGraph(t *testing.T) {
	b, p, s := newBench(t, Graph)
	x := nn.NewTensor(64, 64)
	b.Compute("c", KindOther, func(c *Comp) {
		c.FetchSync(x)
	})
	s.Close()
	async, syncN := memcpyEvents(p.MustTrace())
	if syncN != 1 || async != 0 {
		t.Fatalf("async=%d sync=%d, want 0/1", async, syncN)
	}
}

func TestFetchSyncEagerWrapsOwnBackendCall(t *testing.T) {
	b, p, s := newBench(t, EagerPyTorch)
	x := nn.NewTensor(8, 8)
	b.Compute("c", KindOther, func(c *Comp) {
		c.FetchSync(x)
	})
	s.Close()
	tr := p.MustTrace()
	found := false
	for _, e := range tr.Events {
		if e.Kind == trace.KindCPU && e.Cat == trace.CatBackend && e.Name == "fetch_sync" {
			found = true
		}
	}
	if !found {
		t.Fatal("eager FetchSync did not open its own backend call")
	}
}

func TestNewWithCostsOverrides(t *testing.T) {
	costs := Graph.Costs()
	costs.KernelBase = 50 * vclock.Microsecond // absurdly slow kernels
	p := profiler.New(profiler.Options{Workload: "x", Flags: trace.Uninstrumented(), Seed: 3})
	s := p.NewProcess("t", -1, 0)
	ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
	b := &Backend{lanes: []Lane{{Sess: s, Ctx: ctx}}, model: Graph, costs: costs}
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(rng, "n", []int{2, 4, 1}, nn.Tanh, nn.Identity)
	x := nn.NewTensor(1, 2)
	b.Compute("fwd", KindInference, func(c *Comp) {
		c.Forward(net, x)
	})
	s.Close()
	tr := p.MustTrace()
	for _, e := range tr.Events {
		if e.Kind == trace.KindGPU && e.Cat == trace.CatGPUKernel {
			if e.Duration() < 50*vclock.Microsecond {
				t.Fatalf("custom KernelBase ignored: kernel %v", e.Duration())
			}
			return
		}
	}
	t.Fatal("no kernels launched")
}

func TestParamBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(rng, "n", []int{3, 5}, nn.Identity, nn.Identity)
	// 3*5 weights + 5 biases = 20 params * 4 bytes.
	if got := net.ParamBytes(); got != 80 {
		t.Fatalf("ParamBytes = %d, want 80", got)
	}
}
