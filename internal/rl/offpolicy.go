package rl

import (
	"repro/internal/backend"
	"repro/internal/nn"
)

// offPolicy is the skeleton DQN, DDPG, TD3 and SAC share: they step a
// single environment, cache every transition in a replay buffer (paper
// §2.1), and once it holds warmup transitions train on minibatches sampled
// from it. Each algorithm supplies its action rule, act, and its Update.
type offPolicy struct {
	agentBase
	act    func(obs []float64) []float64
	replay *ReplayBuffer
	warmup int
	// perCollect is how many updates follow a warm collection segment;
	// 0 means one per two collected steps.
	perCollect int
	gamma      float64
}

// OnPolicy implements Agent.
func (o *offPolicy) OnPolicy() bool { return false }

// NumEnvs implements Agent: off-policy algorithms collect from a single
// environment.
func (o *offPolicy) NumEnvs() int { return 1 }

// ActBatch implements Agent with the algorithm's action rule.
func (o *offPolicy) ActBatch(obs [][]float64) [][]float64 {
	return [][]float64{o.act(obs[0])}
}

// Observe implements Agent.
func (o *offPolicy) Observe(_ int, t Transition) { o.replay.Add(t) }

// UpdatesPerCollect implements Agent: none until the replay buffer is warm.
func (o *offPolicy) UpdatesPerCollect() int {
	if o.replay.Len() < o.warmup {
		return 0
	}
	if o.perCollect > 0 {
		return o.perCollect
	}
	return o.CollectSteps() / 2
}

// infer runs net on one observation as the algorithm's predict call.
func (o *offPolicy) infer(net *backend.Network, obs []float64) *nn.Tensor {
	x := obsTensor([][]float64{obs})
	var out *nn.Tensor
	o.b.Compute(o.predict, backend.KindInference, func(c *backend.Comp) {
		c.Feed(x)
		out = c.Forward(net, x)
		c.Fetch(out)
	})
	return out
}

// minibatch is one replay sample and the tensors an update feeds from it.
type minibatch struct {
	batch       []Transition
	obs, next   [][]float64
	xObs, xNext *nn.Tensor
	critIn      *nn.Tensor // [obs, act] rows
}

// sample assembles a minibatch, which happens in high-level code.
func (o *offPolicy) sample() *minibatch {
	n := o.cfg.batch()
	o.b.Python(pythonMinibatchCost(n))
	mb := &minibatch{
		batch: o.replay.Sample(n),
		obs:   make([][]float64, n),
		next:  make([][]float64, n),
	}
	acts := make([][]float64, n)
	for i, t := range mb.batch {
		mb.obs[i], acts[i], mb.next[i] = t.Obs, t.Act, t.Next
	}
	mb.xObs = obsTensor(mb.obs)
	mb.xNext = obsTensor(mb.next)
	mb.critIn = concatTensor(mb.obs, acts)
	return mb
}

// tdTarget is the Bellman target y = r + γ·next(i), cut at terminal
// transitions, as one row per transition.
func (o *offPolicy) tdTarget(mb *minibatch, next func(i int) float64) *nn.Tensor {
	target := nn.NewTensor(len(mb.batch), 1)
	for i, t := range mb.batch {
		y := t.Reward
		if !t.Done {
			y += float64(o.gamma * next(i))
		}
		target.Set(i, 0, y)
	}
	return target
}

// dpgActorGrad accumulates the deterministic policy gradient of DDPG and
// TD3 into actor: it maximizes mean critic(s, actor(s)) over the minibatch.
// The caller steps the optimizer.
func (o *offPolicy) dpgActorGrad(c *backend.Comp, mb *minibatch, actor, critic *backend.Network) {
	c.Feed(mb.xObs)
	c.ZeroGrad(actor)
	c.ZeroGrad(critic) // scratch gradients for dQ/da only
	aPred := c.Forward(actor, mb.xObs)
	var actorIn *nn.Tensor
	c.HostLoss(o.concatPi, func() {
		actorIn = concatTensor(mb.obs, rows(aPred))
	})
	c.Forward(critic, actorIn)
	var up *nn.Tensor
	c.HostLoss(o.actorGrad, func() { up = ascendQ(len(mb.batch)) })
	dIn := c.Backward(critic, up, true)
	var dAct *nn.Tensor
	c.HostLoss(o.splitGrad, func() {
		dAct = splitCriticInputGrad(dIn, o.cfg.ObsDim)
	})
	c.Backward(actor, dAct, false)
}

// ascendQ is the upstream gradient that makes backpropagation through a
// critic maximize its mean Q over n rows: −1/n per row.
func ascendQ(n int) *nn.Tensor {
	up := nn.NewTensor(n, 1)
	up.Fill(-1.0 / float64(n))
	return up
}

// twinCritic is the clipped double-Q critic pair of TD3 and SAC.
type twinCritic struct {
	critic1, critic1Target *backend.Network
	critic2, critic2Target *backend.Network
	criticOpt              *nn.Adam
}

// regress fits both critics on critIn to one target, in host losses
// names[0] and names[1].
func (tc *twinCritic) regress(c *backend.Comp, names [2]string, critIn, target *nn.Tensor) {
	for i, q := range []*backend.Network{tc.critic1, tc.critic2} {
		c.ZeroGrad(q)
		pred := c.Forward(q, critIn)
		var grad *nn.Tensor
		c.HostLoss(names[i], func() { _, grad = nn.MSELoss(pred, target) })
		c.Backward(q, grad, false)
		c.AdamStepFused(q, tc.criticOpt)
	}
}
