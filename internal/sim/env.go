// Package sim implements the simulators the paper's surveys run on,
// spanning its simulator-complexity axis (Figure 6):
//
//   - low complexity / computer games: Atari-style Pong;
//   - medium complexity / robotics: planar rigid-linkage physics standing in
//     for MuJoCo's Hopper, Walker2D, HalfCheetah and Ant;
//   - high complexity / photo-realistic: an AirLearning-style quadrotor
//     point-to-point navigation task whose per-step cost is dominated by
//     rendering.
//
// Every environment implements real dynamics — deterministic given a seed,
// with meaningful observations and rewards that the RL algorithms train
// against. Each also carries a per-step CPU cost model: the virtual time a
// step consumes inside the simulator's native library, scaled to match the
// relative complexities of the originals. A product that feeds an add is
// written float64(x*y), which forbids the compiler to fuse the two (arm64
// would), so a seed gives the same trajectory on every architecture.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/vclock"
)

// Env is the environment interface, mirroring the OpenAI Gym API the
// paper's workloads use.
type Env interface {
	// Name returns the environment id, e.g. "Walker2D".
	Name() string
	// ObsDim is the observation vector length.
	ObsDim() int
	// ActDim is the action dimensionality: the number of torque inputs
	// for continuous tasks, or the number of discrete actions.
	ActDim() int
	// Discrete reports whether actions are discrete choices.
	Discrete() bool
	// Reset reinitializes the episode and returns the first observation.
	Reset() []float64
	// Step applies an action (length ActDim for continuous; for discrete
	// envs, act[0] holds the action index) and returns the next
	// observation, the reward, and whether the episode ended.
	Step(act []float64) (obs []float64, reward float64, done bool)
	// StepCost is the simulated CPU time one step costs inside the
	// simulator's native library.
	StepCost() vclock.Dist
	// ResetCost is the simulated CPU cost of an episode reset.
	ResetCost() vclock.Dist
}

// Complexity buckets environments along Figure 6's axis.
type Complexity uint8

// Complexity levels.
const (
	Low Complexity = iota
	Medium
	High
)

// String returns the display name.
func (c Complexity) String() string {
	switch c {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Complexity(%d)", uint8(c))
	}
}

// Spec describes an environment for reports (Figure 6's taxonomy).
type Spec struct {
	Name       string
	Domain     string
	Complexity Complexity
}

// Taxonomy lists the surveyed environments in Figure 6 order.
func Taxonomy() []Spec {
	return []Spec{
		{Name: "Pong", Domain: "computer games (Atari)", Complexity: Low},
		{Name: "Go", Domain: "computer games (board)", Complexity: Low},
		{Name: "Hopper", Domain: "robotics", Complexity: Medium},
		{Name: "Walker2D", Domain: "robotics", Complexity: Medium},
		{Name: "HalfCheetah", Domain: "robotics", Complexity: Medium},
		{Name: "Ant", Domain: "robotics", Complexity: Medium},
		{Name: "AirLearning", Domain: "drones (photo-realistic)", Complexity: High},
	}
}

// New constructs a surveyed environment by name.
func New(name string, seed int64) (Env, error) {
	switch name {
	case "Pong":
		return NewPong(seed), nil
	case "Hopper":
		return NewHopper(seed), nil
	case "Walker2D":
		return NewWalker2D(seed), nil
	case "HalfCheetah":
		return NewHalfCheetah(seed), nil
	case "Ant":
		return NewAnt(seed), nil
	case "AirLearning":
		return NewAirLearning(seed), nil
	default:
		return nil, fmt.Errorf("sim: unknown environment %q", name)
	}
}

// SurveyNames lists the Figure 7 environments in the paper's order.
var SurveyNames = []string{"AirLearning", "Ant", "HalfCheetah", "Hopper", "Pong", "Walker2D"}

// clip bounds v to [-lim, lim].
func clip(v, lim float64) float64 {
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// randRange draws uniformly from [lo, hi).
func randRange(rng *rand.Rand, lo, hi float64) float64 {
	return lo + float64(rng.Float64()*(hi-lo))
}
