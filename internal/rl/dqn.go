package rl

import (
	"repro/internal/backend"
	"repro/internal/nn"
)

// DQN is the deep Q-network algorithm (Mnih et al. 2015) the paper uses as
// its running example (§2.1): ε-greedy inference, experience replay, and
// Huber-loss Q-learning against a periodically synchronized target network.
type DQN struct {
	offPolicy

	q, qTarget *backend.Network
	opt        *nn.Adam

	updates     int
	targetEvery int
	eps         float64
	epsMin      float64
	epsDecay    float64
}

// NewDQN builds a DQN agent for a discrete-action environment.
func NewDQN(cfg Config) *DQN {
	d := &DQN{
		offPolicy: offPolicy{
			agentBase:  newAgentBase("DQN", "dqn", cfg, 4), // trains every 4 frames
			replay:     NewReplayBuffer(50_000, cfg.Seed+1),
			warmup:     200,
			perCollect: 1,
			gamma:      0.99,
		},
		opt:         nn.NewAdam(5e-4),
		targetEvery: 250,
		eps:         1.0,
		epsMin:      0.05,
		epsDecay:    0.995,
	}
	if !cfg.Discrete {
		panic("rl: DQN requires a discrete action space")
	}
	sizes := cfg.sizes(cfg.ObsDim, cfg.ActDim)
	d.q = backend.NewNetwork(d.rng, "q", sizes, nn.ReLU, nn.Identity)
	d.qTarget = backend.NewNetwork(d.rng, "q_target", sizes, nn.ReLU, nn.Identity)
	d.q.MLP.CopyTo(d.qTarget.MLP)
	d.act = d.Act
	return d
}

// Act is DQN's action rule: ε-greedy over the Q network.
func (d *DQN) Act(obs []float64) []float64 {
	d.eps = max(d.epsMin, d.eps*d.epsDecay)
	if d.rng.Float64() < d.eps {
		return []float64{float64(d.rng.Intn(d.cfg.ActDim))}
	}
	return []float64{float64(d.infer(d.q, obs).ArgmaxRow(0))}
}

// Update implements Agent: one Huber-loss Q update on a sampled minibatch.
func (d *DQN) Update() {
	mb := d.sample()
	d.b.Compute("dqn/train_step", backend.KindBackprop, func(c *backend.Comp) {
		c.Feed(mb.xObs)
		c.Feed(mb.xNext)
		c.ZeroGrad(d.q)
		// Target values from the frozen network.
		qNext := c.Forward(d.qTarget, mb.xNext)
		pred := c.Forward(d.q, mb.xObs)
		var grad *nn.Tensor
		c.HostLoss("dqn/huber", func() {
			y := d.tdTarget(mb, func(i int) float64 { return qNext.Row(i)[qNext.ArgmaxRow(i)] })
			target := pred.Clone()
			for i, t := range mb.batch {
				target.Set(i, int(t.Act[0]), y.At(i, 0))
			}
			_, grad = nn.HuberLoss(pred, target)
		})
		c.Backward(d.q, grad, false)
		c.AdamStepFused(d.q, d.opt)
		if d.updates%d.targetEvery == 0 {
			c.HardUpdate(d.q, d.qTarget)
		}
	})
	d.updates++
}
