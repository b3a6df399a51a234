package rl

import (
	"math"

	"repro/internal/nn"
)

// A2C is synchronous advantage actor-critic, the paper's first on-policy
// survey algorithm. Following stable-baselines, it collects short
// fixed-length rollouts from a vector of 16 environments, which is why A2C
// is the most simulation-bound algorithm in Figure 5 (67% simulation).
type A2C struct {
	onPolicy
	entCoef float64
}

// a2cNumEnvs is stable-baselines' default vectorization for A2C.
const a2cNumEnvs = 16

// NewA2C builds an A2C agent (discrete or continuous).
func NewA2C(cfg Config) *A2C {
	return &A2C{
		// stable-baselines' n_steps=5 per env.
		onPolicy: newOnPolicy("A2C", "a2c", cfg, 5, a2cNumEnvs, 7e-4),
		entCoef:  0.01,
	}
}

// Update implements Agent: one combined policy+value gradient step over all
// environments' rollouts.
func (a *A2C) Update() {
	fb := a.gather(1.0) // A2C: λ=1 (n-step returns)
	if fb == nil {
		return
	}
	a.trainStep(fb.obs, fb.ret, "a2c/pg_loss", func(out *nn.Tensor) *nn.Tensor {
		return a.policyGrad(out, fb.acts, fb.adv)
	})
}

// policyGrad computes dLoss/d(policy output) for the concatenated batch.
func (a *A2C) policyGrad(out *nn.Tensor, acts [][]float64, adv []float64) *nn.Tensor {
	n := len(acts)
	if a.cfg.Discrete {
		actions := make([]int, n)
		for i, act := range acts {
			actions[i] = int(act[0])
		}
		_, grad := nn.PolicyGradientLoss(out, actions, adv, a.entCoef)
		return grad
	}
	// Continuous: dL/dmean = −adv·(a−mean)/σ² / n.
	grad := nn.NewTensor(n, a.cfg.ActDim)
	sigma2 := math.Exp(2 * a.logStd)
	for i := 0; i < n; i++ {
		for j := 0; j < a.cfg.ActDim; j++ {
			grad.Set(i, j, -adv[i]*(acts[i][j]-out.At(i, j))/sigma2/float64(n))
		}
	}
	return grad
}
