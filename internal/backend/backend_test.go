package backend

import (
	"math/rand"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/nn"
	"repro/internal/overlap"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// runTrainStep executes a representative "train step" computation under one
// execution model and returns the overlap result plus total time.
func runTrainStep(t *testing.T, model ExecModel, steps int) (*overlap.Result, vclock.Duration) {
	t.Helper()
	p := profiler.New(profiler.Options{Workload: "bk-test", Flags: trace.Uninstrumented(), Seed: 1})
	s := p.NewProcess("trainer", -1, 0)
	ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
	b := New(s, ctx, model)

	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(rng, "q", []int{8, 32, 32, 1}, nn.ReLU, nn.Identity)
	x := nn.NewTensor(16, 8)
	y := nn.NewTensor(16, 1)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	adam := nn.NewAdam(1e-3)

	for i := 0; i < steps; i++ {
		s.WithOperation("backpropagation", func() {
			b.Compute("train_step", KindBackprop, func(c *Comp) {
				c.Feed(x)
				c.ZeroGrad(net)
				pred := c.Forward(net, x)
				var grad *nn.Tensor
				c.HostLoss("mse", func() {
					_, grad = nn.MSELoss(pred, y)
				})
				c.Backward(net, grad)
				c.AdamStepFused(net, adam)
				c.Fetch(y)
			})
		})
	}
	s.Close()
	tr := p.MustTrace()
	return overlap.Compute(tr.ProcEvents(0)), p.TotalTime()
}

func TestEagerHasManyMoreBackendTransitions(t *testing.T) {
	const steps = 5
	resGraph, _ := runTrainStep(t, Graph, steps)
	resEager, _ := runTrainStep(t, EagerTF, steps)

	gTrans := resGraph.TransitionCount("backpropagation", trace.TransPythonToBackend)
	eTrans := resEager.TransitionCount("backpropagation", trace.TransPythonToBackend)
	if gTrans != steps {
		t.Fatalf("Graph backend transitions = %d, want %d (one per step)", gTrans, steps)
	}
	if eTrans < 10*gTrans {
		t.Fatalf("Eager transitions (%d) should dwarf Graph's (%d)", eTrans, gTrans)
	}
}

func TestEagerSlowerThanGraph(t *testing.T) {
	_, gTotal := runTrainStep(t, Graph, 10)
	_, eTotal := runTrainStep(t, EagerTF, 10)
	ratio := float64(eTotal) / float64(gTotal)
	if ratio < 1.5 {
		t.Fatalf("EagerTF/Graph = %.2fx; paper F.1 expects Eager well above Graph", ratio)
	}
}

func TestPyTorchEagerFasterThanTFEager(t *testing.T) {
	_, tfTotal := runTrainStep(t, EagerTF, 10)
	_, ptTotal := runTrainStep(t, EagerPyTorch, 10)
	ratio := float64(tfTotal) / float64(ptTotal)
	if ratio < 1.5 {
		t.Fatalf("TFEager/PyTorchEager = %.2fx; paper F.3 expects ≈2.3x", ratio)
	}
}

func TestPyTorchFusionReducesTransitionsAndKernels(t *testing.T) {
	resTF, _ := runTrainStep(t, EagerTF, 3)
	resPT, _ := runTrainStep(t, EagerPyTorch, 3)
	tfCUDA := resTF.TransitionCount("backpropagation", trace.TransBackendToCUDA)
	ptCUDA := resPT.TransitionCount("backpropagation", trace.TransBackendToCUDA)
	if ptCUDA >= tfCUDA {
		t.Fatalf("PyTorch kernels launches (%d) should be fewer than TF's (%d) via fusion", ptCUDA, tfCUDA)
	}
	tfB := resTF.TransitionCount("backpropagation", trace.TransPythonToBackend)
	ptB := resPT.TransitionCount("backpropagation", trace.TransPythonToBackend)
	if ptB >= tfB {
		t.Fatalf("PyTorch backend transitions (%d) should be fewer than TF Eager's (%d)", ptB, tfB)
	}
}

func TestAutographInferenceBackendAnomaly(t *testing.T) {
	// F.6: Autograph inference inflates Backend time ~4x vs Graph, without
	// extra transitions.
	run := func(model ExecModel) *overlap.Result {
		p := profiler.New(profiler.Options{Workload: "inf", Flags: trace.Uninstrumented(), Seed: 3})
		s := p.NewProcess("t", -1, 0)
		ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
		b := New(s, ctx, model)
		rng := rand.New(rand.NewSource(4))
		net := NewNetwork(rng, "pi", []int{8, 32, 4}, nn.ReLU, nn.Identity)
		x := nn.NewTensor(1, 8)
		for i := 0; i < 50; i++ {
			s.WithOperation("inference", func() {
				b.Compute("predict", KindInference, func(c *Comp) {
					c.Feed(x)
					out := c.Forward(net, x)
					c.Fetch(out)
				})
			})
		}
		s.Close()
		return overlap.Compute(p.MustTrace().ProcEvents(0))
	}
	g := run(Graph)
	a := run(Autograph)
	gB := g.CategoryCPUTime("inference", trace.CatBackend)
	aB := a.CategoryCPUTime("inference", trace.CatBackend)
	ratio := float64(aB) / float64(gB)
	if ratio < 1.5 {
		t.Fatalf("Autograph/Graph inference Backend time = %.2fx; F.6 expects ≈4x", ratio)
	}
	gT := g.TransitionCount("inference", trace.TransPythonToBackend)
	aT := a.TransitionCount("inference", trace.TransPythonToBackend)
	if aT > gT {
		t.Fatalf("anomaly must not come from transitions: autograph %d > graph %d", aT, gT)
	}
}

func TestMathIdenticalAcrossExecModels(t *testing.T) {
	// The execution model changes timing, never numerics.
	train := func(model ExecModel) float64 {
		p := profiler.New(profiler.Options{Workload: "m", Flags: trace.Uninstrumented(), Seed: 5})
		s := p.NewProcess("t", -1, 0)
		ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
		b := New(s, ctx, model)
		rng := rand.New(rand.NewSource(99))
		net := NewNetwork(rng, "n", []int{4, 16, 1}, nn.Tanh, nn.Identity)
		x := &nn.Tensor{Rows: 2, Cols: 4, Data: []float64{1, 2, 3, 4, 0.5, -1, 2, 0}}
		y := &nn.Tensor{Rows: 2, Cols: 1, Data: []float64{1, -1}}
		adam := nn.NewAdam(0.01)
		var loss float64
		for i := 0; i < 20; i++ {
			b.Compute("step", KindBackprop, func(c *Comp) {
				c.ZeroGrad(net)
				pred := c.Forward(net, x)
				var grad *nn.Tensor
				c.HostLoss("mse", func() {
					loss, grad = nn.MSELoss(pred, y)
				})
				c.Backward(net, grad)
				c.AdamStepFused(net, adam)
			})
		}
		s.Close()
		return loss
	}
	ref := train(Graph)
	for _, m := range []ExecModel{Autograph, EagerTF, EagerPyTorch} {
		if got := train(m); got != ref {
			t.Fatalf("%v final loss %g differs from Graph's %g", m, got, ref)
		}
	}
}

func TestMPIAdamIssuesDeviceCopies(t *testing.T) {
	p := profiler.New(profiler.Options{Workload: "mpi", Flags: trace.Uninstrumented(), Seed: 6})
	s := p.NewProcess("t", -1, 0)
	ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
	b := New(s, ctx, Graph)
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(rng, "n", []int{4, 8, 1}, nn.Tanh, nn.Identity)
	adam := nn.NewAdam(0.001)
	for _, param := range net.MLP.Params() {
		param.Grad.Fill(0.1)
	}
	b.MPIAdamApply(net, adam)
	s.Close()
	tr := p.MustTrace()
	var d2h, h2d int
	for _, e := range tr.Events {
		if e.Kind == trace.KindGPU && e.Cat == trace.CatGPUMemcpy {
			switch e.Name {
			case "memcpyD2H":
				d2h++
			case "memcpyH2D":
				h2d++
			}
		}
	}
	nParams := len(net.MLP.Params())
	if d2h != nParams || h2d != nParams {
		t.Fatalf("MPI Adam copies: D2H=%d H2D=%d, want %d each", d2h, h2d, nParams)
	}
}

func TestMPIAdamCostsMoreThanFused(t *testing.T) {
	run := func(mpi bool) vclock.Duration {
		p := profiler.New(profiler.Options{Workload: "cmp", Flags: trace.Uninstrumented(), Seed: 8})
		s := p.NewProcess("t", -1, 0)
		ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
		b := New(s, ctx, Graph)
		rng := rand.New(rand.NewSource(9))
		net := NewNetwork(rng, "n", []int{8, 64, 64, 1}, nn.ReLU, nn.Identity)
		adam := nn.NewAdam(0.001)
		for i := 0; i < 10; i++ {
			if mpi {
				b.MPIAdamApply(net, adam)
			} else {
				b.Compute("apply", KindBackprop, func(c *Comp) {
					c.AdamStepFused(net, adam)
				})
			}
		}
		s.Close()
		return p.TotalTime()
	}
	fused, mpi := run(false), run(true)
	if mpi <= fused {
		t.Fatalf("MPI Adam (%v) should cost more than fused Adam (%v) — paper F.4", mpi, fused)
	}
}

func TestAutographLoopEntryCostAmortizes(t *testing.T) {
	// F.5: per-step Python time shrinks as consecutive steps per loop
	// entry grow.
	perStepPython := func(stepsPerEntry int) float64 {
		p := profiler.New(profiler.Options{Workload: "loop", Flags: trace.Uninstrumented(), Seed: 10})
		s := p.NewProcess("t", -1, 0)
		ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
		b := New(s, ctx, Autograph)
		const totalSteps = 1000
		entries := totalSteps / stepsPerEntry
		op := s.Operation("simulation")
		for e := 0; e < entries; e++ {
			b.AutographLoopEntry()
			for range stepsPerEntry {
				s.CallSimulator("step", func() {
					s.Clock().Advance(100 * vclock.Microsecond)
				})
			}
		}
		op.End()
		s.Close()
		res := overlap.Compute(p.MustTrace().ProcEvents(0))
		return res.CategoryCPUTime("simulation", trace.CatPython).Seconds() / totalSteps
	}
	small := perStepPython(100)  // DDPG's hyperparameter
	large := perStepPython(1000) // TD3's hyperparameter
	if small <= large*1.5 {
		t.Fatalf("python/step at 100 steps-per-entry (%g) should exceed 1000 steps-per-entry (%g)", small, large)
	}
}

func TestNestedComputePanics(t *testing.T) {
	p := profiler.New(profiler.Options{Workload: "x", Seed: 1})
	s := p.NewProcess("t", -1, 0)
	ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
	b := New(s, ctx, Graph)
	defer func() {
		if recover() == nil {
			t.Fatal("nested Compute did not panic")
		}
	}()
	b.Compute("outer", KindOther, func(*Comp) {
		b.Compute("inner", KindOther, nil)
	})
}

func TestExecModelMetadata(t *testing.T) {
	if Graph.Framework() != "stable-baselines" || EagerPyTorch.Framework() != "ReAgent" {
		t.Fatal("framework names wrong")
	}
	if EagerPyTorch.BackendName() != "PyTorch 1.6.0" || Graph.BackendName() != "TensorFlow 2.2.0" {
		t.Fatal("backend names wrong")
	}
	if !EagerTF.Eager() || Graph.Eager() {
		t.Fatal("Eager() classification wrong")
	}
}

func TestKernelDurScalesWithFLOPs(t *testing.T) {
	c := Graph.Costs()
	small := c.KernelDur(1000)
	big := c.KernelDur(1e9)
	if big <= small {
		t.Fatal("kernel duration must grow with FLOPs")
	}
	if small < c.KernelBase {
		t.Fatal("kernel duration below base")
	}
}
