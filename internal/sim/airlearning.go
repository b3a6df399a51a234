package sim

import (
	"math"
	"math/rand"

	"repro/internal/vclock"
)

// AirLearning is a quadrotor point-to-point navigation task standing in for
// the AirLearning UAV toolkit (Krishnan et al.), whose simulator runs
// photo-realistic rendering inside a video game engine. The flight dynamics
// here are a damped double integrator with thrust-vector actions; the
// dominant per-step cost models the engine's rendering work, which is why
// the paper's simulator survey (F.12) finds simulation consuming 99.6% of
// AirLearning training time.
type AirLearning struct {
	rng *rand.Rand

	pos, vel [3]float64
	goal     [3]float64
	steps    int
}

// AirLearning task constants.
const (
	airMaxSteps   = 300
	airArena      = 20.0 // half-size of the flight arena
	airGoalRadius = 0.75
	airMaxThrust  = 4.0
	airDrag       = 0.35
	airDT         = 0.05
)

// NewAirLearning creates the drone navigation environment.
func NewAirLearning(seed int64) *AirLearning {
	a := &AirLearning{rng: rand.New(rand.NewSource(seed))}
	a.Reset()
	return a
}

// Name implements Env.
func (a *AirLearning) Name() string { return "AirLearning" }

// ObsDim implements Env: position, velocity, and vector to goal.
func (a *AirLearning) ObsDim() int { return 9 }

// ActDim implements Env: thrust in x/y/z plus a yaw channel.
func (a *AirLearning) ActDim() int { return 4 }

// Discrete implements Env.
func (a *AirLearning) Discrete() bool { return false }

// StepCost implements Env: photo-realistic rendering plus physics — four
// orders of magnitude above an Atari frame, dominating the training loop.
func (a *AirLearning) StepCost() vclock.Dist {
	return vclock.Jittered(28*vclock.Millisecond, 0.15)
}

// ResetCost implements Env: scene reload is expensive in a game engine.
func (a *AirLearning) ResetCost() vclock.Dist {
	return vclock.Jittered(120*vclock.Millisecond, 0.15)
}

// Reset implements Env.
func (a *AirLearning) Reset() []float64 {
	a.pos = [3]float64{0, 0, 2}
	a.vel = [3]float64{}
	for i := 0; i < 3; i++ {
		a.goal[i] = randRange(a.rng, -airArena/2, airArena/2)
	}
	a.goal[2] = math.Abs(a.goal[2]) + 1 // goals above ground
	a.steps = 0
	return a.obs()
}

func (a *AirLearning) obs() []float64 {
	return []float64{
		a.pos[0], a.pos[1], a.pos[2],
		a.vel[0], a.vel[1], a.vel[2],
		a.goal[0] - a.pos[0], a.goal[1] - a.pos[1], a.goal[2] - a.pos[2],
	}
}

func (a *AirLearning) distToGoal() float64 {
	var s float64
	for i := 0; i < 3; i++ {
		d := a.goal[i] - a.pos[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// Step implements Env.
func (a *AirLearning) Step(act []float64) ([]float64, float64, bool) {
	a.steps++
	prevDist := a.distToGoal()
	for i := 0; i < 3; i++ {
		thrust := float64(clip(act[i], 1) * airMaxThrust)
		acc := thrust - float64(airDrag*a.vel[i])
		if i == 2 {
			acc += 0 // gravity assumed compensated by hover thrust
		}
		a.vel[i] += float64(acc * airDT)
		a.pos[i] += float64(a.vel[i] * airDT)
	}
	newDist := a.distToGoal()
	reward := (prevDist - newDist) - 0.01 // progress minus time penalty

	crashed := a.pos[2] <= 0 ||
		math.Abs(a.pos[0]) > airArena || math.Abs(a.pos[1]) > airArena || a.pos[2] > airArena
	reached := newDist < airGoalRadius
	if reached {
		reward += 10
	}
	if crashed {
		reward -= 5
	}
	done := reached || crashed || a.steps >= airMaxSteps
	return a.obs(), reward, done
}
