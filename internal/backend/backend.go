package backend

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/nn"
	"repro/internal/profiler"
	"repro/internal/vclock"
)

// Backend binds one simulated process to an ML backend under a specific
// execution model. It drives one or more lanes: each lane is one profiler's
// recording of the same run (its own session, clock and device), and the
// host arithmetic runs once for all of them. Every lane sees exactly the
// calls a backend of its own would make, in the same order, so its trace is
// the one a run with that lane alone records.
type Backend struct {
	lanes []Lane
	model ExecModel
	costs CostModel

	inComp bool
}

// Lane is one profiler's view of the run: the process session its events go
// to and the CUDA context its device calls go through.
type Lane struct {
	Sess *profiler.Session
	Ctx  *cuda.Context
}

// New creates a backend for the session using the execution model's default
// cost model.
func New(sess *profiler.Session, ctx *cuda.Context, model ExecModel) *Backend {
	return NewLanes(model, []Lane{{Sess: sess, Ctx: ctx}})
}

// NewLanes creates a backend that records every call on each lane, in lane
// order, and runs the arithmetic once. It panics on no lanes.
func NewLanes(model ExecModel, lanes []Lane) *Backend {
	if len(lanes) == 0 {
		panic("backend: no lanes")
	}
	return &Backend{lanes: lanes, model: model, costs: model.Costs()}
}

// Model returns the backend's execution model.
func (b *Backend) Model() ExecModel { return b.model }

// Python spends high-level driver time d on every lane (Session.Python).
func (b *Backend) Python(d vclock.Dist) {
	for _, l := range b.lanes {
		l.Sess.Python(d)
	}
}

// Nest runs body once inside bracket applied to every lane: lane 0's
// bracket is outermost, and each bracket must call inner exactly once. A
// lane's work before and after inner is its solo run's work around body;
// body itself, the arithmetic, runs once, inside the innermost bracket.
func (b *Backend) Nest(bracket func(l Lane, inner func()), body func()) {
	b.nest(0, bracket, body)
}

func (b *Backend) nest(i int, bracket func(Lane, func()), body func()) {
	if i == len(b.lanes) {
		if body != nil {
			body()
		}
		return
	}
	bracket(b.lanes[i], func() { b.nest(i+1, bracket, body) })
}

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
		for _, l := range b.lanes {
			l.Sess.CallBackend(name+"/sync", func() {
				l.spend(b.costs.CallOverhead)
				l.Ctx.StreamSynchronize()
			})
		}
		return
	}
	// Graph-style: marshaling in Python, then a single backend call.
	b.Nest(func(l Lane, inner func()) {
		l.Sess.Python(b.costs.PyGlue)
		l.Sess.CallBackend(name, func() {
			l.spend(b.costs.CallOverhead)
			inner()
			l.Ctx.StreamSynchronize()
		})
	}, func() { fn(c) })
}

// spend advances the lane's clock by a sampled duration; the time lands in
// whatever tier event is currently open.
func (l Lane) spend(d vclock.Dist) {
	clk := l.Sess.Clock()
	clk.Advance(d.Sample(clk.Rand()))
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
	launch := func(l Lane) {
		for k := 0; k < kernels; k++ {
			l.Ctx.LaunchKernel(name, b.costs.KernelDur(flops/float64(kernels)))
		}
	}
	if b.model.Eager() {
		b.Nest(func(l Lane, inner func()) {
			l.Sess.Python(b.costs.PyGlue)
			l.Sess.CallBackend(name, func() {
				l.spend(b.costs.CallOverhead)
				l.spend(dispatch)
				inner()
				launch(l)
			})
		}, fn)
		return
	}
	for _, l := range b.lanes {
		l.spend(dispatch)
	}
	if fn != nil {
		fn()
	}
	for _, l := range b.lanes {
		launch(l)
	}
}

// Feed copies a host tensor to the device (the minibatch upload).
func (c *Comp) Feed(t *nn.Tensor) {
	c.memop("feed", func(l Lane) { l.Ctx.MemcpyAsync(cuda.HostToDevice, t.Bytes()) })
}

// Fetch copies a device tensor back to the host (reading results).
func (c *Comp) Fetch(t *nn.Tensor) {
	c.memop("fetch", func(l Lane) { l.Ctx.MemcpyAsync(cuda.DeviceToHost, t.Bytes()) })
}

// FetchSync copies a device tensor to the host with a blocking cudaMemcpy —
// the call high-level code makes when it needs the values immediately, as
// stable-baselines' Python Adam does when it pulls gradients off the device
// (paper F.4).
func (c *Comp) FetchSync(t *nn.Tensor) {
	c.memop("fetch_sync", func(l Lane) { l.Ctx.Memcpy(cuda.DeviceToHost, t.Bytes()) })
}

// memop issues one device copy on every lane: in Eager models inside a
// backend call of its own, preceded by Python glue.
func (c *Comp) memop(name string, issue func(Lane)) {
	b := c.b
	for _, l := range b.lanes {
		if !b.model.Eager() {
			issue(l)
			continue
		}
		l.Sess.Python(b.costs.PyGlue)
		l.Sess.CallBackend(name, func() {
			l.spend(b.costs.CallOverhead)
			issue(l)
		})
	}
}

// AutographLoopEntry pays the cost of entering tf-agents' in-graph
// data-collection loop (paper F.5): tracing/dispatch Python time paid once
// per entry, amortized over the consecutive simulator steps inside. Callers
// charge it inside their data-collection operation annotation so the
// inflation shows up in the simulation stage, as the paper observes. A
// no-op for non-Autograph models.
func (b *Backend) AutographLoopEntry() {
	if b.model == Autograph {
		b.Python(b.costs.LoopEntry)
	}
}
