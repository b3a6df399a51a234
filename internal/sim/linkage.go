package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vclock"
)

// Linkage is a planar rigid-linkage locomotion simulator standing in for
// MuJoCo's Hopper/Walker2D/HalfCheetah/Ant tasks. A torso (point mass with
// height and forward velocity) carries a chain of actuated rotational
// joints whose feet interact with the ground through a spring-damper
// contact; torques propel the body forward.
//
// The dynamics are a deliberate simplification of featherstone-style rigid
// body simulation, but they are real dynamics: deterministic integration,
// torque-driven motion, contact forces, termination on falling, and the
// standard reward shape (forward velocity − control cost + alive bonus).
type Linkage struct {
	name     string
	rng      *rand.Rand
	nJoints  int
	linkLen  float64
	torsoM   float64
	maxSteps int
	stepCost vclock.Dist
	// termination bounds on torso height.
	minH, maxH float64
	aliveBonus float64

	// State.
	z      float64 // torso height
	vx, vz float64 // torso velocity (forward, vertical)
	theta  []float64
	omega  []float64
	steps  int
}

// Integration constants shared by all morphologies.
const (
	linkDT        = 0.008
	linkGravity   = -9.8
	linkKContact  = 900.0
	linkDContact  = 9.0
	linkJointDamp = 0.08
	linkTorqueLim = 1.0
)

// morphology constructs a Linkage with task-specific parameters. The
// per-step simulator costs are scaled to the relative MuJoCo model
// complexities (Ant's 3-D quadruped costs the most; Hopper the least).
func morphology(name string, seed int64, joints int, minH, maxH, alive float64, stepCost vclock.Dist) *Linkage {
	l := &Linkage{
		name:       name,
		rng:        rand.New(rand.NewSource(seed)),
		nJoints:    joints,
		linkLen:    0.4,
		torsoM:     3.5,
		maxSteps:   1000,
		stepCost:   stepCost,
		minH:       minH,
		maxH:       maxH,
		aliveBonus: alive,
	}
	l.Reset()
	return l
}

// NewHopper builds the 3-joint one-legged hopper.
func NewHopper(seed int64) *Linkage {
	return morphology("Hopper", seed, 3, 0.45, 2.2, 1.0,
		vclock.Jittered(95*vclock.Microsecond, 0.2))
}

// NewWalker2D builds the 6-joint bipedal walker (the paper's main survey
// task).
func NewWalker2D(seed int64) *Linkage {
	return morphology("Walker2D", seed, 6, 0.5, 2.0, 1.0,
		vclock.Jittered(150*vclock.Microsecond, 0.2))
}

// NewHalfCheetah builds the 6-joint planar cheetah (no termination on
// falling, like the MuJoCo original).
func NewHalfCheetah(seed int64) *Linkage {
	l := morphology("HalfCheetah", seed, 6, -10, 10, 0,
		vclock.Jittered(130*vclock.Microsecond, 0.2))
	return l
}

// NewAnt builds the 8-joint quadruped.
func NewAnt(seed int64) *Linkage {
	return morphology("Ant", seed, 8, 0.3, 1.6, 0.5,
		vclock.Jittered(290*vclock.Microsecond, 0.2))
}

// Name implements Env.
func (l *Linkage) Name() string { return l.name }

// ObsDim implements Env: torso height, velocities, and per-joint
// angle+velocity pairs.
func (l *Linkage) ObsDim() int { return 3 + 2*l.nJoints }

// ActDim implements Env.
func (l *Linkage) ActDim() int { return l.nJoints }

// Discrete implements Env.
func (l *Linkage) Discrete() bool { return false }

// StepCost implements Env.
func (l *Linkage) StepCost() vclock.Dist { return l.stepCost }

// ResetCost implements Env.
func (l *Linkage) ResetCost() vclock.Dist { return l.stepCost.Scale(4) }

// Reset implements Env.
func (l *Linkage) Reset() []float64 {
	l.z = 1.1
	l.vx, l.vz = 0, 0
	l.theta = make([]float64, l.nJoints)
	l.omega = make([]float64, l.nJoints)
	for i := range l.theta {
		l.theta[i] = randRange(l.rng, -0.08, 0.08)
	}
	l.steps = 0
	return l.obs()
}

func (l *Linkage) obs() []float64 {
	o := make([]float64, 0, l.ObsDim())
	o = append(o, l.z, l.vx, l.vz)
	for i := 0; i < l.nJoints; i++ {
		o = append(o, l.theta[i], l.omega[i])
	}
	return o
}

// Step implements Env: semi-implicit Euler integration of joint and torso
// dynamics with ground contact.
func (l *Linkage) Step(act []float64) ([]float64, float64, bool) {
	if len(act) != l.nJoints {
		panic(fmt.Sprintf("sim: %s expects %d torques, got %d", l.name, l.nJoints, len(act)))
	}
	l.steps++
	var ctrlCost float64
	// Joint dynamics: torque-driven damped rotation; joint inertia grows
	// with link length.
	inertia := l.linkLen * l.linkLen
	for i := 0; i < l.nJoints; i++ {
		tq := clip(act[i], linkTorqueLim)
		ctrlCost += float64(tq * tq)
		alpha := (tq - float64(linkJointDamp*l.omega[i])) / inertia
		l.omega[i] += float64(alpha * linkDT)
		l.theta[i] += float64(l.omega[i] * linkDT)
		// Joint limits as stiff springs.
		const lim = 2.0
		if l.theta[i] > lim {
			l.omega[i] -= float64((l.theta[i] - lim) * 6)
			l.theta[i] = lim
		} else if l.theta[i] < -lim {
			l.omega[i] -= float64((l.theta[i] + lim) * 6)
			l.theta[i] = -lim
		}
	}

	// Feet: each joint's link endpoint below the torso; contact when the
	// endpoint penetrates the ground plane produces normal force and,
	// through joint motion, forward thrust.
	var fz, fx float64
	for i := 0; i < l.nJoints; i++ {
		footZ := l.z - float64(l.linkLen*(1+float64(0.5*math.Cos(l.theta[i]))))
		if footZ < 0 {
			pen := -footZ
			vFoot := l.vz + float64(l.linkLen*0.5*math.Sin(l.theta[i])*l.omega[i])
			n := float64(linkKContact*pen) - float64(linkDContact*vFoot)
			if n < 0 {
				n = 0
			}
			fz += n
			// Tangential thrust from leg sweep while in contact.
			fx += float64(0.35 * n * math.Sin(l.theta[i]) * l.omega[i] * l.linkLen)
		}
	}

	// Torso dynamics.
	az := linkGravity + fz/l.torsoM
	ax := fx/l.torsoM - float64(0.3*l.vx) // quadratic-ish drag, linearized
	l.vz += float64(az * linkDT)
	l.vx += float64(ax * linkDT)
	l.z += float64(l.vz * linkDT)
	if l.z < 0.1 {
		l.z, l.vz = 0.1, 0
	}

	reward := l.vx + l.aliveBonus - float64(0.05*ctrlCost)
	fell := l.z < l.minH || l.z > l.maxH
	done := fell || l.steps >= l.maxSteps
	return l.obs(), reward, done
}
