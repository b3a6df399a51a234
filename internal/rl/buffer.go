// Package rl implements the RL algorithms surveyed by the paper — DQN,
// DDPG, TD3, SAC (off-policy) and A2C, PPO2 (on-policy) — on top of the
// simulated ML backend. Every algorithm trains real networks with real
// gradients; the backend charges simulated CPU/GPU time around the math, so
// profiled training runs produce the cross-stack traces the case studies
// analyze. A product that feeds an add is written float64(x*y), which
// forbids the compiler to fuse the two (arm64 would), so training computes
// the same bits on every architecture.
package rl

import (
	"math"
	"math/rand"
)

// Transition is one environment step.
type Transition struct {
	Obs    []float64
	Act    []float64
	Reward float64
	Next   []float64
	Done   bool
}

// ReplayBuffer is the experience cache off-policy algorithms sample from
// (paper §2.1: DQN's "cached experience tuples").
type ReplayBuffer struct {
	buf   []Transition
	next  int
	rng   *rand.Rand
	limit int
}

// NewReplayBuffer creates a buffer holding at most capacity transitions.
func NewReplayBuffer(capacity int, seed int64) *ReplayBuffer {
	if capacity <= 0 {
		panic("rl: replay buffer capacity must be positive")
	}
	return &ReplayBuffer{
		buf:   make([]Transition, 0, capacity),
		rng:   rand.New(rand.NewSource(seed)),
		limit: capacity,
	}
}

// Add stores one transition, evicting the oldest when full.
func (r *ReplayBuffer) Add(t Transition) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, t)
		return
	}
	r.buf[r.next] = t
	r.next = (r.next + 1) % r.limit
}

// Len returns the number of stored transitions.
func (r *ReplayBuffer) Len() int { return len(r.buf) }

// Sample draws n transitions uniformly with replacement.
func (r *ReplayBuffer) Sample(n int) []Transition {
	if len(r.buf) == 0 {
		panic("rl: sampling from empty replay buffer")
	}
	out := make([]Transition, n)
	for i := range out {
		out[i] = r.buf[r.rng.Intn(len(r.buf))]
	}
	return out
}

// Rollout is the on-policy trajectory buffer for A2C/PPO: fixed-length
// segments collected with the current policy, consumed whole by each update
// (the structural reason on-policy algorithms are simulation-bound, paper
// F.10).
type Rollout struct {
	Obs     [][]float64
	Acts    [][]float64
	Rewards []float64
	Dones   []bool
	Values  []float64
	LogPs   []float64
	// LastValue bootstraps the value of the state after the final step.
	LastValue float64
}

// Add appends one step.
func (ro *Rollout) Add(obs, act []float64, reward float64, done bool, value, logp float64) {
	ro.Obs = append(ro.Obs, obs)
	ro.Acts = append(ro.Acts, act)
	ro.Rewards = append(ro.Rewards, reward)
	ro.Dones = append(ro.Dones, done)
	ro.Values = append(ro.Values, value)
	ro.LogPs = append(ro.LogPs, logp)
}

// Len returns the number of collected steps.
func (ro *Rollout) Len() int { return len(ro.Rewards) }

// Reset clears the rollout for the next collection segment.
func (ro *Rollout) Reset() {
	ro.Obs = ro.Obs[:0]
	ro.Acts = ro.Acts[:0]
	ro.Rewards = ro.Rewards[:0]
	ro.Dones = ro.Dones[:0]
	ro.Values = ro.Values[:0]
	ro.LogPs = ro.LogPs[:0]
	ro.LastValue = 0
}

// GAE computes generalized-advantage estimates and discounted returns for
// the rollout with discount gamma and smoothing lambda.
func (ro *Rollout) GAE(gamma, lambda float64) (advantages, returns []float64) {
	n := ro.Len()
	advantages = make([]float64, n)
	returns = make([]float64, n)
	var adv float64
	for t := n - 1; t >= 0; t-- {
		var nextValue float64
		var nextNonTerminal float64
		if t == n-1 {
			nextValue = ro.LastValue
		} else {
			nextValue = ro.Values[t+1]
		}
		if !ro.Dones[t] {
			nextNonTerminal = 1
		}
		delta := ro.Rewards[t] + float64(gamma*nextValue*nextNonTerminal) - ro.Values[t]
		adv = delta + float64(gamma*lambda*nextNonTerminal*adv)
		advantages[t] = adv
		returns[t] = adv + ro.Values[t]
	}
	return advantages, returns
}

// NormalizeAdvantages standardizes advantages in place (mean 0, std 1),
// the usual PPO/A2C trick.
func NormalizeAdvantages(adv []float64) {
	if len(adv) == 0 {
		return
	}
	var mean float64
	for _, a := range adv {
		mean += a
	}
	mean /= float64(len(adv))
	var varsum float64
	for _, a := range adv {
		d := a - mean
		varsum += float64(d * d)
	}
	std := math.Sqrt(varsum / float64(len(adv)))
	if std < 1e-8 {
		std = 1e-8
	}
	for i := range adv {
		adv[i] = (adv[i] - mean) / std
	}
}
