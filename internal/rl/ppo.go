package rl

import (
	"math"

	"repro/internal/nn"
)

// PPO2 is proximal policy optimization with a clipped surrogate objective,
// stable-baselines' PPO2 implementation: long vectorized rollouts followed
// by several epochs of minibatch updates. Between A2C's tiny rollouts and
// the off-policy algorithms' per-step updates, PPO2 lands in the middle of
// Figure 5's simulation-bound spectrum (46.3% simulation).
type PPO2 struct {
	onPolicy
	lambda, clip      float64
	epochs, minibatch int
}

// ppoNumEnvs is the vectorization PPO2 collects with on continuous-control
// tasks; ppoAtariEnvs/ppoAtariEpochs are the Atari-zoo tuning for discrete
// tasks — more parallel emulators and fewer optimization epochs, the
// "small number of gradient updates compared to the number of simulator
// invocations" behind Pong's 74.2% simulation share (paper Appendix B.1).
const (
	ppoNumEnvs     = 4
	ppoAtariEnvs   = 8
	ppoAtariEpochs = 2
)

// NewPPO2 builds a PPO2 agent (discrete or continuous).
func NewPPO2(cfg Config) *PPO2 {
	nEnvs, epochs := ppoNumEnvs, 4
	if cfg.Discrete {
		nEnvs, epochs = ppoAtariEnvs, ppoAtariEpochs
	}
	return &PPO2{
		// n_steps=128 per env.
		onPolicy:  newOnPolicy("PPO2", "ppo", cfg, 128, nEnvs, 3e-4),
		lambda:    0.95,
		clip:      0.2,
		epochs:    epochs,
		minibatch: 64,
	}
}

// Update implements Agent: GAE, then epochs × minibatches of clipped
// surrogate updates.
func (p *PPO2) Update() {
	fb := p.gather(p.lambda)
	if fb == nil {
		return
	}
	NormalizeAdvantages(fb.adv)

	total := len(fb.obs)
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < p.epochs; epoch++ {
		p.rng.Shuffle(total, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for lo := 0; lo < total; lo += p.minibatch {
			mb := idx[lo:min(lo+p.minibatch, total)]
			obs := make([][]float64, len(mb))
			ret := make([]float64, len(mb))
			for i, id := range mb {
				obs[i], ret[i] = fb.obs[id], fb.ret[id]
			}
			p.trainStep(obs, ret, "ppo/clip_loss", func(out *nn.Tensor) *nn.Tensor {
				return p.clippedGrad(out, fb, mb)
			})
		}
	}
}

// clippedGrad computes dL/d(policy output) for the clipped surrogate.
func (p *PPO2) clippedGrad(out *nn.Tensor, fb *flatBatch, idx []int) *nn.Tensor {
	m := len(idx)
	grad := nn.NewTensor(m, p.cfg.ActDim)
	if p.cfg.Discrete {
		logp := nn.LogSoftmax(out)
		probs := nn.Softmax(out)
		for i, id := range idx {
			a := int(fb.acts[id][0])
			ratio := math.Exp(logp.At(i, a) - fb.logps[id])
			if clippedOut(ratio, fb.adv[id], p.clip) {
				continue
			}
			// d(−ratio·A)/dlogit_j = −A·ratio·(1[j=a] − p_j)
			for j := 0; j < p.cfg.ActDim; j++ {
				ind := 0.0
				if j == a {
					ind = 1
				}
				grad.Set(i, j, -fb.adv[id]*ratio*(ind-probs.At(i, j))/float64(m))
			}
		}
		return grad
	}
	sigma2 := math.Exp(2 * p.logStd)
	for i, id := range idx {
		var logp float64
		for j := 0; j < p.cfg.ActDim; j++ {
			logp += gaussLogp(fb.acts[id][j], out.At(i, j), p.logStd)
		}
		ratio := math.Exp(logp - fb.logps[id])
		if clippedOut(ratio, fb.adv[id], p.clip) {
			continue
		}
		// d(−ratio·A)/dmean_j = −A·ratio·(a_j−mean_j)/σ²
		for j := 0; j < p.cfg.ActDim; j++ {
			grad.Set(i, j, -fb.adv[id]*ratio*(fb.acts[id][j]-out.At(i, j))/sigma2/float64(m))
		}
	}
	return grad
}

// clippedOut reports whether the clipped branch of the PPO objective is
// active (gradient zero).
func clippedOut(ratio, adv, clip float64) bool {
	if adv >= 0 {
		return ratio > 1+clip
	}
	return ratio < 1-clip
}
