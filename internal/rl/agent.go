package rl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/backend"
	"repro/internal/nn"
	"repro/internal/vclock"
)

// Agent is the interface every algorithm implements; the workloads package
// drives agents through the paper's annotated training loop (inference →
// simulation → backpropagation).
type Agent interface {
	// Name returns the algorithm name as the paper writes it.
	Name() string
	// OnPolicy reports whether the algorithm is on-policy (A2C, PPO2).
	OnPolicy() bool
	// NumEnvs is the number of vectorized environments the algorithm
	// collects with. stable-baselines runs on-policy algorithms over
	// vectorized environments (one batched inference serves every env's
	// step), which is why their profiles are simulation-dominated; the
	// off-policy algorithms use a single environment.
	NumEnvs() int
	// ActBatch selects one action per environment, running a single
	// batched inference through the backend. len(obs) must be NumEnvs.
	ActBatch(obs [][]float64) [][]float64
	// Observe records a completed step of environment env.
	Observe(env int, t Transition)
	// CollectSteps is the number of consecutive simulator steps (per
	// env) the driver performs before entering the update phase — the
	// hyperparameter behind the paper's F.5 anomaly (TD3: 1000,
	// DDPG: 100); for on-policy algorithms it is the rollout length.
	CollectSteps() int
	// UpdatesPerCollect is how many gradient updates follow one
	// collection segment (0 while warming up).
	UpdatesPerCollect() int
	// Update performs one gradient update through the backend.
	Update()
}

// Config carries the shared construction parameters for agents.
type Config struct {
	Backend *backend.Backend
	ObsDim  int
	ActDim  int
	// Discrete marks environments with categorical actions.
	Discrete bool
	Seed     int64
	// Hidden layer sizes; nil uses the stable-baselines-style default.
	Hidden []int
	// BatchSize for off-policy minibatches; 0 uses 64.
	BatchSize int
	// CollectStepsOverride changes the consecutive-simulator-steps
	// hyperparameter (0 keeps the algorithm default). Used to reproduce
	// the paper's F.5 experiment (DDPG 100 → 1000).
	CollectStepsOverride int
}

func (c *Config) hidden() []int {
	if len(c.Hidden) > 0 {
		return c.Hidden
	}
	return []int{64, 64}
}

func (c *Config) batch() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 64
}

// sizes builds a full layer-size list: in, hidden..., out.
func (c *Config) sizes(in, out int) []int {
	s := append([]int{in}, c.hidden()...)
	return append(s, out)
}

// agentBase is what every agent holds, whichever policy family it belongs
// to: its name, configuration, backend and RNG, the prefix its backend
// calls are named with, and its default collection-segment length.
type agentBase struct {
	name    string
	prefix  string // "ddpg" in "ddpg/predict"
	cfg     Config
	b       *backend.Backend
	rng     *rand.Rand
	collect int
}

// newAgentBase validates cfg for the named algorithm and seeds its RNG,
// from which every network then draws its initial weights in construction
// order.
func newAgentBase(name, prefix string, cfg Config, collect int) agentBase {
	if cfg.ObsDim <= 0 || cfg.ActDim <= 0 {
		panic(fmt.Sprintf("rl: %s configured with obsDim=%d actDim=%d", name, cfg.ObsDim, cfg.ActDim))
	}
	return agentBase{
		name:    name,
		prefix:  prefix,
		cfg:     cfg,
		b:       cfg.Backend,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		collect: collect,
	}
}

// Name implements Agent.
func (a *agentBase) Name() string { return a.name }

// CollectSteps implements Agent: the algorithm's default unless
// Config.CollectStepsOverride sets one.
func (a *agentBase) CollectSteps() int {
	if a.cfg.CollectStepsOverride > 0 {
		return a.cfg.CollectStepsOverride
	}
	return a.collect
}

// pythonMinibatchCost is the high-level-code cost of assembling one
// minibatch from the replay buffer — Python time by construction (paper
// §2.2: replay buffers are "sampled from by high-level code").
func pythonMinibatchCost(batch int) vclock.Dist {
	return vclock.Jittered(vclock.Duration(batch)*700*vclock.Nanosecond, 0.2)
}

// obsTensor packs observations into a batch tensor, one row each.
func obsTensor(obs [][]float64) *nn.Tensor {
	t := nn.NewTensor(len(obs), len(obs[0]))
	for i, o := range obs {
		copy(t.Row(i), o)
	}
	return t
}

// concatTensor packs [obs, act] rows for critic inputs.
func concatTensor(obs, act [][]float64) *nn.Tensor {
	t := nn.NewTensor(len(obs), len(obs[0])+len(act[0]))
	for i := range obs {
		row := t.Row(i)
		copy(row, obs[i])
		copy(row[len(obs[i]):], act[i])
	}
	return t
}

// rows views each row of t as a slice.
func rows(t *nn.Tensor) [][]float64 {
	out := make([][]float64, t.Rows)
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

// gaussianNoise adds N(0, sigma) exploration noise and clips to [-1, 1].
func gaussianNoise(rng *rand.Rand, act []float64, sigma float64) []float64 {
	out := make([]float64, len(act))
	for i, a := range act {
		out[i] = clipf(a+float64(rng.NormFloat64()*sigma), 1)
	}
	return out
}

// log2pi is log(2π).
const log2pi = 1.8378770664093453

// gaussLogp is the log-density of x under N(mean, e^logStd), one dimension
// of the diagonal Gaussian policies A2C, PPO2 and SAC sample from.
func gaussLogp(x, mean, logStd float64) float64 {
	z := (x - mean) / math.Exp(logStd)
	return float64(-0.5*z*z) - logStd - 0.5*log2pi
}

// splitCriticInputGrad extracts the action part of dL/d[obs,act].
func splitCriticInputGrad(grad *nn.Tensor, obsDim int) *nn.Tensor {
	actDim := grad.Cols - obsDim
	out := nn.NewTensor(grad.Rows, actDim)
	for i := 0; i < grad.Rows; i++ {
		copy(out.Row(i), grad.Row(i)[obsDim:])
	}
	return out
}

func clipf(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}
