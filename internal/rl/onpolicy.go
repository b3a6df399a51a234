package rl

import (
	"math"
	"math/rand"

	"repro/internal/backend"
	"repro/internal/nn"
)

// onPolicy is the skeleton A2C and PPO2 share. Following stable-baselines,
// a policy and a value network step a vector of environments — one batched
// inference serves every environment's step, while the simulator steps run
// serially in high-level code — and each update consumes the fixed-length
// rollouts whole (the structural reason on-policy algorithms are
// simulation-bound, paper F.10). Each algorithm supplies its Update over
// the gathered batch.
type onPolicy struct {
	agentBase
	policy, value *backend.Network
	opt           *nn.Adam
	logStd        float64
	gamma         float64
	rollouts      []Rollout
	// pending carries value/logp per env from ActBatch to Observe.
	pendingValues []float64
	pendingLogps  []float64
	// boot holds the next-observation per env for value bootstrapping.
	bootObs [][]float64
}

// newOnPolicy builds the policy network, then the value network, for
// nEnvs environments and an Adam optimizer with learning rate lr.
func newOnPolicy(name, prefix string, cfg Config, collect, nEnvs int, lr float64) onPolicy {
	o := onPolicy{
		agentBase:     newAgentBase(name, prefix, cfg, collect),
		opt:           nn.NewAdam(lr),
		logStd:        math.Log(0.5),
		gamma:         0.99,
		rollouts:      make([]Rollout, nEnvs),
		pendingValues: make([]float64, nEnvs),
		pendingLogps:  make([]float64, nEnvs),
		bootObs:       make([][]float64, nEnvs),
	}
	o.policy = backend.NewNetwork(o.rng, "policy", cfg.sizes(cfg.ObsDim, cfg.ActDim), nn.Tanh, nn.Identity)
	o.value = backend.NewNetwork(o.rng, "value", cfg.sizes(cfg.ObsDim, 1), nn.Tanh, nn.Identity)
	return o
}

// OnPolicy implements Agent.
func (o *onPolicy) OnPolicy() bool { return true }

// NumEnvs implements Agent.
func (o *onPolicy) NumEnvs() int { return len(o.rollouts) }

// UpdatesPerCollect implements Agent: one update consumes the rollout.
func (o *onPolicy) UpdatesPerCollect() int { return 1 }

// ActBatch implements Agent: one batched policy+value inference for all
// environments, then per-env sampling in high-level code.
func (o *onPolicy) ActBatch(obs [][]float64) [][]float64 {
	x := obsTensor(obs)
	var out, val *nn.Tensor
	o.b.Compute(o.predict, backend.KindInference, func(c *backend.Comp) {
		c.Feed(x)
		out = c.Forward(o.policy, x)
		val = c.Forward(o.value, x)
		c.Fetch(out)
		c.Fetch(val)
	})
	acts := make([][]float64, len(obs))
	for e := range obs {
		o.pendingValues[e] = val.At(e, 0)
		acts[e], o.pendingLogps[e] = o.sample(out, e)
	}
	return acts
}

// sample draws an action for row e of the policy output and returns its
// log-probability.
func (o *onPolicy) sample(out *nn.Tensor, e int) ([]float64, float64) {
	if o.cfg.Discrete {
		probs := nn.Softmax(out)
		act := sampleCategorical(o.rng, probs.Row(e))
		return []float64{float64(act)}, math.Log(probs.At(e, act) + 1e-12)
	}
	mean := out.Row(e)
	std := math.Exp(o.logStd)
	act := make([]float64, len(mean))
	var logp float64
	for i, m := range mean {
		act[i] = m + float64(std*o.rng.NormFloat64())
		logp += gaussLogp(act[i], m, o.logStd)
		// Clip to the action space, as stable-baselines' VecEnv does
		// before stepping the simulator.
		act[i] = clipf(act[i], 1)
	}
	return act, logp
}

func sampleCategorical(rng *rand.Rand, probs []float64) int {
	r := rng.Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if r < cum {
			return i
		}
	}
	return len(probs) - 1
}

// Observe implements Agent.
func (o *onPolicy) Observe(env int, t Transition) {
	o.rollouts[env].Add(t.Obs, t.Act, t.Reward, t.Done, o.pendingValues[env], o.pendingLogps[env])
	o.bootObs[env] = t.Next
}

// flatBatch is the concatenated rollout an on-policy update optimizes over.
type flatBatch struct {
	obs   [][]float64
	acts  [][]float64
	logps []float64
	adv   []float64
	ret   []float64
}

// gather bootstraps every env's final value in one batched inference, then
// concatenates the per-env rollouts with their GAE (smoothing lambda)
// advantages and returns, and resets them. It returns nil when nothing was
// collected.
func (o *onPolicy) gather(lambda float64) *flatBatch {
	total := 0
	for e := range o.rollouts {
		total += o.rollouts[e].Len()
	}
	if total == 0 {
		return nil
	}
	xBoot := obsTensor(o.bootObs)
	var bootVal *nn.Tensor
	o.b.Compute(o.bootstrap, backend.KindInference, func(c *backend.Comp) {
		c.Feed(xBoot)
		bootVal = c.Forward(o.value, xBoot)
		c.Fetch(bootVal)
	})

	fb := &flatBatch{}
	for e := range o.rollouts {
		ro := &o.rollouts[e]
		n := ro.Len()
		if n == 0 {
			continue
		}
		if ro.Dones[n-1] {
			ro.LastValue = 0
		} else {
			ro.LastValue = bootVal.At(e, 0)
		}
		adv, ret := ro.GAE(o.gamma, lambda)
		fb.obs = append(fb.obs, ro.Obs...)
		fb.acts = append(fb.acts, ro.Acts...)
		fb.logps = append(fb.logps, ro.LogPs...)
		fb.adv = append(fb.adv, adv...)
		fb.ret = append(fb.ret, ret...)
		ro.Reset()
	}
	return fb
}

// trainStep is one combined policy+value gradient step over obs: the
// policy gradient pg in host loss pgLoss, a half-MSE regression of
// the value network to ret, and global-norm gradient clipping.
func (o *onPolicy) trainStep(obs [][]float64, ret []float64, pgLoss string, pg func(out *nn.Tensor) *nn.Tensor) {
	x := obsTensor(obs)
	o.b.Python(pythonMinibatchCost(len(obs)))
	o.b.Compute(o.trainStepOp, backend.KindBackprop, func(c *backend.Comp) {
		c.Feed(x)
		c.ZeroGrad(o.policy)
		c.ZeroGrad(o.value)
		out := c.Forward(o.policy, x)
		var pgrad *nn.Tensor
		c.HostLoss(pgLoss, func() { pgrad = pg(out) })
		c.Backward(o.policy, pgrad, false)

		pred := c.Forward(o.value, x)
		var vgrad *nn.Tensor
		c.HostLoss(o.valueLoss, func() {
			target := nn.NewTensor(len(ret), 1)
			copy(target.Data, ret)
			_, vgrad = nn.MSELoss(pred, target)
			vgrad.Scale(0.5)
		})
		c.Backward(o.value, vgrad, false)

		c.HostLoss(o.clipGrads, func() {
			nn.ClipGradByGlobalNorm(append(o.policy.MLP.Params(), o.value.MLP.Params()...), 0.5)
		})
		c.AdamStepFused(o.policy, o.opt)
		c.AdamStepFused(o.value, o.opt)
	})
}
