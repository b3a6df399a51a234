package rl

import (
	"math"

	"repro/internal/backend"
	"repro/internal/nn"
)

// SAC is soft actor-critic: an off-policy maximum-entropy actor-critic.
// The policy is a squashed Gaussian — the network outputs the pre-squash
// mean, a fixed diagonal standard deviation supplies exploration, and
// actions are tanh(u). Twin critics with entropy-regularized targets follow
// Haarnoja et al.; the temperature α is fixed.
type SAC struct {
	offPolicy
	twinCritic

	actor    *backend.Network
	actorOpt *nn.Adam

	logStd float64
	alpha  float64
	tau    float64
}

// NewSAC builds a SAC agent.
func NewSAC(cfg Config) *SAC {
	s := &SAC{
		offPolicy: offPolicy{
			agentBase: newAgentBase("SAC", "sac", cfg, 100),
			replay:    NewReplayBuffer(100_000, cfg.Seed+1),
			warmup:    100,
			gamma:     0.99,
		},
		twinCritic: twinCritic{criticOpt: nn.NewAdam(3e-4)},
		actorOpt:   nn.NewAdam(3e-4),
		logStd:     math.Log(0.3),
		alpha:      0.2,
		tau:        0.005,
	}
	actorSizes := cfg.sizes(cfg.ObsDim, cfg.ActDim)
	criticSizes := cfg.sizes(cfg.ObsDim+cfg.ActDim, 1)
	s.actor = backend.NewNetwork(s.rng, "actor", actorSizes, nn.ReLU, nn.Identity)
	s.critic1 = backend.NewNetwork(s.rng, "critic1", criticSizes, nn.ReLU, nn.Identity)
	s.critic2 = backend.NewNetwork(s.rng, "critic2", criticSizes, nn.ReLU, nn.Identity)
	s.critic1Target = backend.NewNetwork(s.rng, "critic1_target", criticSizes, nn.ReLU, nn.Identity)
	s.critic2Target = backend.NewNetwork(s.rng, "critic2_target", criticSizes, nn.ReLU, nn.Identity)
	s.critic1.MLP.CopyTo(s.critic1Target.MLP)
	s.critic2.MLP.CopyTo(s.critic2Target.MLP)
	s.act = s.Act
	return s
}

// samplePolicy draws u ~ N(mean, σ), a = tanh(u); returns a and logπ(a|s).
func (s *SAC) samplePolicy(mean []float64) (act []float64, logp float64) {
	std := math.Exp(s.logStd)
	act = make([]float64, len(mean))
	for i, m := range mean {
		u := m + float64(std*s.rng.NormFloat64())
		a := math.Tanh(u)
		act[i] = a
		logp += gaussLogp(u, m, s.logStd)
		logp -= math.Log(1 - float64(a*a) + 1e-6) // tanh change of variables
	}
	return act, logp
}

// Act is SAC's action rule: a sample from the squashed Gaussian policy.
func (s *SAC) Act(obs []float64) []float64 {
	act, _ := s.samplePolicy(s.infer(s.actor, obs).Row(0))
	return act
}

// Update implements Agent: entropy-regularized twin-critic update and a
// reparameterized actor update.
func (s *SAC) Update() {
	mb := s.sample()
	n := len(mb.batch)

	s.b.Compute("sac/critic_train", backend.KindBackprop, func(c *backend.Comp) {
		c.Feed(mb.critIn)
		c.Feed(mb.xNext)
		meanNext := c.Forward(s.actor, mb.xNext)
		var targetIn *nn.Tensor
		logps := make([]float64, n)
		c.HostLoss("sac/sample_next", func() {
			nextActs := make([][]float64, n)
			for i := range nextActs {
				nextActs[i], logps[i] = s.samplePolicy(meanNext.Row(i))
			}
			targetIn = concatTensor(mb.next, nextActs)
		})
		q1n := c.Forward(s.critic1Target, targetIn)
		q2n := c.Forward(s.critic2Target, targetIn)
		var target *nn.Tensor
		c.HostLoss("sac/soft_target", func() {
			target = s.tdTarget(mb, func(i int) float64 {
				return math.Min(q1n.At(i, 0), q2n.At(i, 0)) - float64(s.alpha*logps[i])
			})
		})
		s.regress(c, s.prefix, mb.critIn, target)
	})

	s.b.Compute("sac/actor_train", backend.KindBackprop, func(c *backend.Comp) {
		c.Feed(mb.xObs)
		c.ZeroGrad(s.actor)
		c.ZeroGrad(s.critic1)
		mean := c.Forward(s.actor, mb.xObs)
		// Reparameterized sample: u = mean + σε, a = tanh(u).
		std := math.Exp(s.logStd)
		us := nn.NewTensor(n, s.cfg.ActDim)
		var actorIn *nn.Tensor
		c.HostLoss("sac/reparam", func() {
			piActs := make([][]float64, n)
			for i := range piActs {
				row := make([]float64, s.cfg.ActDim)
				for j := range row {
					u := mean.At(i, j) + float64(std*s.rng.NormFloat64())
					us.Set(i, j, u)
					row[j] = math.Tanh(u)
				}
				piActs[i] = row
			}
			actorIn = concatTensor(mb.obs, piActs)
		})
		c.Forward(s.critic1, actorIn)
		var up *nn.Tensor
		c.HostLoss("sac/q_grad", func() { up = ascendQ(n) })
		dIn := c.Backward(s.critic1, up)
		var dMean *nn.Tensor
		c.HostLoss("sac/actor_grad", func() {
			// dObj/dmean = −dQ/da·(1−tanh²u) + α·2·tanh(u)/N
			// (the entropy term through the tanh log-det; the
			// Gaussian self-term cancels under reparameterization).
			dAct := splitCriticInputGrad(dIn, s.cfg.ObsDim)
			dMean = nn.NewTensor(n, s.cfg.ActDim)
			for i := 0; i < n; i++ {
				for j := 0; j < s.cfg.ActDim; j++ {
					th := math.Tanh(us.At(i, j))
					g := float64(dAct.At(i, j)*(1-float64(th*th))) +
						s.alpha*2*th/float64(n)
					dMean.Set(i, j, g)
				}
			}
		})
		c.Backward(s.actor, dMean)
		c.AdamStepFused(s.actor, s.actorOpt)
		c.PolyakUpdate(s.critic1, s.critic1Target, s.tau)
		c.PolyakUpdate(s.critic2, s.critic2Target, s.tau)
	})
}
