package rl

import (
	"repro/internal/backend"
	"repro/internal/nn"
)

// DDPG is deep deterministic policy gradient: an off-policy actor-critic
// for continuous control. The paper's framework study singles out the
// stable-baselines implementation — the TF Graph row of Table 1 — for two
// inefficiencies (F.4): the MPI-friendly CPU Adam that round-trips weights
// over PCIe, and target updates issued as separate session calls. Under
// the Graph execution model DDPG reproduces both; elsewhere it runs the
// fused device Adam with in-graph target updates. Both paths apply the same
// Adam updates, then the same Polyak averaging.
type DDPG struct {
	offPolicy

	actor, actorTarget   *backend.Network
	critic, criticTarget *backend.Network
	actorOpt, criticOpt  *nn.Adam
	// stableBaselines selects the MPI Adam and separate target calls.
	stableBaselines bool

	noise float64
	tau   float64
}

// NewDDPG builds a DDPG agent.
func NewDDPG(cfg Config) *DDPG {
	d := &DDPG{
		offPolicy: offPolicy{
			// stable-baselines DDPG performs 100 consecutive
			// simulator steps per collection segment (paper F.5).
			agentBase: newAgentBase("DDPG", "ddpg", cfg, 100),
			replay:    NewReplayBuffer(100_000, cfg.Seed+1),
			warmup:    100,
			gamma:     0.99,
		},
		actorOpt:        nn.NewAdam(1e-4),
		criticOpt:       nn.NewAdam(1e-3),
		stableBaselines: cfg.Backend.Model() == backend.Graph,
		noise:           0.1,
		tau:             0.005,
	}
	actorSizes := cfg.sizes(cfg.ObsDim, cfg.ActDim)
	criticSizes := cfg.sizes(cfg.ObsDim+cfg.ActDim, 1)
	d.actor = backend.NewNetwork(d.rng, "actor", actorSizes, nn.ReLU, nn.Tanh)
	d.critic = backend.NewNetwork(d.rng, "critic", criticSizes, nn.ReLU, nn.Identity)
	d.actorTarget = backend.NewNetwork(d.rng, "actor_target", actorSizes, nn.ReLU, nn.Tanh)
	d.criticTarget = backend.NewNetwork(d.rng, "critic_target", criticSizes, nn.ReLU, nn.Identity)
	d.actor.MLP.CopyTo(d.actorTarget.MLP)
	d.critic.MLP.CopyTo(d.criticTarget.MLP)
	d.act = d.Act
	return d
}

// Act is DDPG's action rule: deterministic actor plus Gaussian exploration
// noise.
func (d *DDPG) Act(obs []float64) []float64 {
	return gaussianNoise(d.rng, d.infer(d.actor, obs).Row(0), d.noise)
}

// Update implements Agent: one critic update and one actor update, with
// target-network maintenance.
func (d *DDPG) Update() {
	mb := d.sample()

	// --- Critic update ---
	d.b.Compute("ddpg/critic_train", backend.KindBackprop, func(c *backend.Comp) {
		c.Feed(mb.critIn)
		c.Feed(mb.xNext)
		c.ZeroGrad(d.critic)
		// y = r + γ·Q'(s', π'(s'))
		aNext := c.Forward(d.actorTarget, mb.xNext)
		var targetIn *nn.Tensor
		c.HostLoss("ddpg/concat", func() {
			targetIn = concatTensor(mb.next, rows(aNext))
		})
		qNext := c.Forward(d.criticTarget, targetIn)
		pred := c.Forward(d.critic, mb.critIn)
		var grad *nn.Tensor
		c.HostLoss("ddpg/mse", func() {
			_, grad = nn.MSELoss(pred, d.tdTarget(mb, func(i int) float64 { return qNext.At(i, 0) }))
		})
		c.Backward(d.critic, grad, false)
		if d.stableBaselines {
			return // applied outside, in Python
		}
		c.AdamStepFused(d.critic, d.criticOpt)
	})
	if d.stableBaselines {
		d.b.MPIAdamApply(d.critic, d.criticOpt)
	}

	// --- Actor update: maximize Q(s, π(s)) ---
	d.b.Compute("ddpg/actor_train", backend.KindBackprop, func(c *backend.Comp) {
		d.dpgActorGrad(c, mb, d.actor, d.critic)
		if d.stableBaselines {
			return
		}
		c.AdamStepFused(d.actor, d.actorOpt)
		c.PolyakUpdate(d.actor, d.actorTarget, d.tau)
		c.PolyakUpdate(d.critic, d.criticTarget, d.tau)
	})
	if !d.stableBaselines {
		return
	}
	d.b.MPIAdamApply(d.actor, d.actorOpt)
	// stable-baselines issues each target update as its own session call
	// (paper F.4's "could be bundled into a single call").
	d.b.Compute("ddpg/update_actor_target", backend.KindBackprop, func(c *backend.Comp) {
		c.PolyakUpdate(d.actor, d.actorTarget, d.tau)
	})
	d.b.Compute("ddpg/update_critic_target", backend.KindBackprop, func(c *backend.Comp) {
		c.PolyakUpdate(d.critic, d.criticTarget, d.tau)
	})
}
