package backend

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/nn"
	"repro/internal/profiler"
	"repro/internal/vclock"
)

// Backend binds one simulated process to an ML backend under a specific
// execution model.
type Backend struct {
	sess  *profiler.Session
	ctx   *cuda.Context
	model ExecModel
	costs CostModel

	inComp bool
}

// New creates a backend for the session using the execution model's default
// cost model.
func New(sess *profiler.Session, ctx *cuda.Context, model ExecModel) *Backend {
	return &Backend{sess: sess, ctx: ctx, model: model, costs: model.Costs()}
}

// Model returns the backend's execution model.
func (b *Backend) Model() ExecModel { return b.model }

// Session returns the owning profiler session.
func (b *Backend) Session() *profiler.Session { return b.sess }

// Comp is the handle passed to a computation body; primitives issued
// through it are timed according to the execution model.
type Comp struct {
	b    *Backend
	kind CompKind
}

// Compute executes one logical computation (e.g. "actor_forward",
// "train_step") under the execution model:
//
//   - Graph/Autograph: one Python→Backend call wraps the whole body; the
//     driver pays feed/fetch marshaling in Python beforehand; a stream
//     synchronize at the end models session.run's blocking return.
//   - Eager: the body runs in the driver; every primitive becomes its own
//     Python→Backend call preceded by Python glue; a final sync call
//     models reading the result tensor.
func (b *Backend) Compute(name string, kind CompKind, fn func(*Comp)) {
	if b.inComp {
		panic(fmt.Sprintf("backend: nested Compute(%q)", name))
	}
	b.inComp = true
	defer func() { b.inComp = false }()

	c := &Comp{b: b, kind: kind}
	if b.model.Eager() {
		fn(c)
		b.sess.CallBackend(name+"/sync", func() {
			b.spend(b.costs.CallOverhead)
			b.ctx.StreamSynchronize()
		})
		return
	}
	// Graph-style: marshaling in Python, then a single backend call.
	b.sess.Python(b.costs.PyGlue)
	b.sess.CallBackend(name, func() {
		b.spend(b.costs.CallOverhead)
		fn(c)
		b.ctx.StreamSynchronize()
	})
}

// spend advances the session clock by a sampled duration; the time lands in
// whatever tier event is currently open.
func (b *Backend) spend(d vclock.Dist) {
	b.sess.Clock().Advance(d.Sample(b.sess.Clock().Rand()))
}

// Op issues one primitive: `kernels` GPU kernel launches totalling `flops`,
// with the real math in fn (run on the host). fn may be nil for pure-device
// ops.
func (c *Comp) Op(name string, flops float64, kernels int, fn func()) {
	b := c.b
	dispatch := b.costs.OpDispatch
	if c.kind == KindInference && b.costs.InferenceOpFactor != 1 {
		dispatch = dispatch.Scale(b.costs.InferenceOpFactor)
	}
	body := func() {
		b.spend(dispatch)
		if fn != nil {
			fn()
		}
		for k := 0; k < kernels; k++ {
			b.ctx.LaunchKernel(name, b.costs.KernelDur(flops/float64(kernels)))
		}
	}
	if b.model.Eager() {
		b.sess.Python(b.costs.PyGlue)
		b.sess.CallBackend(name, func() {
			b.spend(b.costs.CallOverhead)
			body()
		})
		return
	}
	body()
}

// Feed copies a host tensor to the device (the minibatch upload).
func (c *Comp) Feed(t *nn.Tensor) {
	c.memop("feed", cuda.HostToDevice, t.Bytes())
}

// Fetch copies a device tensor back to the host (reading results).
func (c *Comp) Fetch(t *nn.Tensor) {
	c.memop("fetch", cuda.DeviceToHost, t.Bytes())
}

// FetchSync copies a device tensor to the host with a blocking cudaMemcpy —
// the call high-level code makes when it needs the values immediately, as
// stable-baselines' Python Adam does when it pulls gradients off the device
// (paper F.4).
func (c *Comp) FetchSync(t *nn.Tensor) {
	b := c.b
	if b.model.Eager() {
		b.sess.Python(b.costs.PyGlue)
		b.sess.CallBackend("fetch_sync", func() {
			b.spend(b.costs.CallOverhead)
			b.ctx.Memcpy(cuda.DeviceToHost, t.Bytes())
		})
		return
	}
	b.ctx.Memcpy(cuda.DeviceToHost, t.Bytes())
}

func (c *Comp) memop(name string, dir cuda.Direction, bytes int) {
	b := c.b
	if b.model.Eager() {
		b.sess.Python(b.costs.PyGlue)
		b.sess.CallBackend(name, func() {
			b.spend(b.costs.CallOverhead)
			b.ctx.MemcpyAsync(dir, bytes)
		})
		return
	}
	b.ctx.MemcpyAsync(dir, bytes)
}

// AutographLoopEntry pays the cost of entering tf-agents' in-graph
// data-collection loop (paper F.5): tracing/dispatch Python time paid once
// per entry, amortized over the consecutive simulator steps inside. Callers
// charge it inside their data-collection operation annotation so the
// inflation shows up in the simulation stage, as the paper observes. A
// no-op for non-Autograph models.
func (b *Backend) AutographLoopEntry() {
	if b.model == Autograph {
		b.sess.Python(b.costs.LoopEntry)
	}
}
