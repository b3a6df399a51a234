package rl

import (
	"repro/internal/backend"
	"repro/internal/nn"
)

// TD3 is twin-delayed DDPG: two critics with clipped double-Q targets,
// target-policy smoothing, and a delayed actor update. Its driver performs
// 1000 consecutive simulator steps per collection segment — the
// hyperparameter whose contrast with DDPG's 100 explains the paper's F.5
// Autograph anomaly.
type TD3 struct {
	offPolicy
	twinCritic

	actor, actorTarget *backend.Network
	actorOpt           *nn.Adam

	updates     int
	noise       float64
	targetNoise float64
	noiseClip   float64
	policyDelay int
	tau         float64
}

// NewTD3 builds a TD3 agent.
func NewTD3(cfg Config) *TD3 {
	t := &TD3{
		offPolicy: offPolicy{
			agentBase: newAgentBase("TD3", "td3", cfg, 1000), // paper F.5
			replay:    NewReplayBuffer(100_000, cfg.Seed+1),
			warmup:    100,
			gamma:     0.99,
		},
		twinCritic:  twinCritic{criticOpt: nn.NewAdam(1e-3)},
		actorOpt:    nn.NewAdam(1e-4),
		noise:       0.1,
		targetNoise: 0.2,
		noiseClip:   0.5,
		policyDelay: 2,
		tau:         0.005,
	}
	actorSizes := cfg.sizes(cfg.ObsDim, cfg.ActDim)
	criticSizes := cfg.sizes(cfg.ObsDim+cfg.ActDim, 1)
	t.actor = backend.NewNetwork(t.rng, "actor", actorSizes, nn.ReLU, nn.Tanh)
	t.critic1 = backend.NewNetwork(t.rng, "critic1", criticSizes, nn.ReLU, nn.Identity)
	t.critic2 = backend.NewNetwork(t.rng, "critic2", criticSizes, nn.ReLU, nn.Identity)
	t.actorTarget = backend.NewNetwork(t.rng, "actor_target", actorSizes, nn.ReLU, nn.Tanh)
	t.critic1Target = backend.NewNetwork(t.rng, "critic1_target", criticSizes, nn.ReLU, nn.Identity)
	t.critic2Target = backend.NewNetwork(t.rng, "critic2_target", criticSizes, nn.ReLU, nn.Identity)
	t.actor.MLP.CopyTo(t.actorTarget.MLP)
	t.critic1.MLP.CopyTo(t.critic1Target.MLP)
	t.critic2.MLP.CopyTo(t.critic2Target.MLP)
	t.act = t.Act
	return t
}

// Act is TD3's action rule: deterministic actor plus Gaussian exploration
// noise.
func (t *TD3) Act(obs []float64) []float64 {
	return gaussianNoise(t.rng, t.infer(t.actor, obs).Row(0), t.noise)
}

// Update implements Agent: twin-critic update, delayed actor update.
func (t *TD3) Update() {
	mb := t.sample()
	n := len(mb.batch)

	t.b.Compute("td3/critic_train", backend.KindBackprop, func(c *backend.Comp) {
		c.Feed(mb.critIn)
		c.Feed(mb.xNext)
		// Smoothed target action: clip(π'(s') + clip(ε, ±c), ±1).
		aNext := c.Forward(t.actorTarget, mb.xNext)
		var targetIn *nn.Tensor
		c.HostLoss("td3/smooth_target", func() {
			nextActs := make([][]float64, n)
			for i := range nextActs {
				row := append([]float64(nil), aNext.Row(i)...)
				for j := range row {
					eps := clipf(t.rng.NormFloat64()*t.targetNoise, t.noiseClip)
					row[j] = clipf(row[j]+eps, 1)
				}
				nextActs[i] = row
			}
			targetIn = concatTensor(mb.next, nextActs)
		})
		q1n := c.Forward(t.critic1Target, targetIn)
		q2n := c.Forward(t.critic2Target, targetIn)
		var target *nn.Tensor
		c.HostLoss("td3/min_target", func() {
			target = t.tdTarget(mb, func(i int) float64 {
				q := q1n.At(i, 0)
				if q2 := q2n.At(i, 0); q2 < q {
					q = q2
				}
				return q
			})
		})
		// Clipped double-Q: both critics regress to the same target.
		t.regress(c, t.mse, mb.critIn, target)
	})

	t.updates++
	if t.updates%t.policyDelay != 0 {
		return
	}
	t.b.Compute("td3/actor_train", backend.KindBackprop, func(c *backend.Comp) {
		t.dpgActorGrad(c, mb, t.actor, t.critic1)
		c.AdamStepFused(t.actor, t.actorOpt)
		c.PolyakUpdate(t.actor, t.actorTarget, t.tau)
		c.PolyakUpdate(t.critic1, t.critic1Target, t.tau)
		c.PolyakUpdate(t.critic2, t.critic2Target, t.tau)
	})
}
