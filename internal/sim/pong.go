package sim

import (
	"math"
	"math/rand"

	"repro/internal/vclock"
)

// Pong is a real two-paddle Pong game with a scripted opponent, standing in
// for the Atari emulator. Observations are a RAM-style state vector (ball
// position/velocity and both paddle positions), actions are
// {stay, up, down}, and the reward is ±1 when a point is scored. An episode
// is one rally to pointsToWin points.
type Pong struct {
	rng *rand.Rand

	ballX, ballY   float64
	velX, velY     float64
	paddleA        float64 // agent, left side
	paddleB        float64 // opponent, right side
	scoreA, scoreB int
	steps          int
}

// Pong geometry and rules.
const (
	pongWidth      = 1.0
	pongHeight     = 1.0
	pongPaddleSize = 0.2
	pongPaddleStep = 0.04
	pongBallSpeed  = 0.025
	pongPointsWin  = 3
	pongMaxSteps   = 2000
	// pongFrameSkip is the Atari-standard action repeat: one agent step
	// advances the emulator four frames with the chosen action held.
	pongFrameSkip = 4
)

// NewPong creates a Pong environment.
func NewPong(seed int64) *Pong {
	p := &Pong{rng: rand.New(rand.NewSource(seed))}
	p.Reset()
	return p
}

// Name implements Env.
func (p *Pong) Name() string { return "Pong" }

// ObsDim implements Env.
func (p *Pong) ObsDim() int { return 6 }

// ActDim implements Env: stay / up / down.
func (p *Pong) ActDim() int { return 3 }

// Discrete implements Env.
func (p *Pong) Discrete() bool { return true }

// StepCost implements Env: one agent step is four emulated frames
// (frame-skip) plus screen extraction and preprocessing — the cost profile
// behind the paper's finding that tuned (PPO, Pong) is simulation-dominated
// (74.2% of training time, F.12).
func (p *Pong) StepCost() vclock.Dist { return vclock.Jittered(190*vclock.Microsecond, 0.2) }

// ResetCost implements Env.
func (p *Pong) ResetCost() vclock.Dist { return vclock.Jittered(200*vclock.Microsecond, 0.2) }

// Reset implements Env.
func (p *Pong) Reset() []float64 {
	p.scoreA, p.scoreB = 0, 0
	p.steps = 0
	p.paddleA, p.paddleB = pongHeight/2, pongHeight/2
	p.serve()
	return p.obs()
}

func (p *Pong) serve() {
	p.ballX, p.ballY = pongWidth/2, pongHeight/2
	angle := randRange(p.rng, -math.Pi/4, math.Pi/4)
	dir := 1.0
	if p.rng.Intn(2) == 0 {
		dir = -1
	}
	p.velX = dir * pongBallSpeed * math.Cos(angle)
	p.velY = pongBallSpeed * math.Sin(angle)
}

func (p *Pong) obs() []float64 {
	return []float64{p.ballX, p.ballY, p.velX / pongBallSpeed, p.velY / pongBallSpeed, p.paddleA, p.paddleB}
}

// Step implements Env: advances pongFrameSkip emulator frames with the
// action held, accumulating reward, as Atari RL pipelines do.
func (p *Pong) Step(act []float64) ([]float64, float64, bool) {
	var total float64
	var obs []float64
	var done bool
	for f := 0; f < pongFrameSkip; f++ {
		var r float64
		obs, r, done = p.frame(act)
		total += r
		if done {
			break
		}
	}
	return obs, total, done
}

// frame advances one emulator frame.
func (p *Pong) frame(act []float64) ([]float64, float64, bool) {
	p.steps++
	switch int(act[0]) {
	case 1:
		p.paddleA = clip01(p.paddleA+pongPaddleStep, pongPaddleSize/2, pongHeight-pongPaddleSize/2)
	case 2:
		p.paddleA = clip01(p.paddleA-pongPaddleStep, pongPaddleSize/2, pongHeight-pongPaddleSize/2)
	}
	// Scripted opponent tracks the ball with limited speed.
	if p.ballY > p.paddleB+pongPaddleStep/2 {
		p.paddleB = clip01(p.paddleB+pongPaddleStep*0.85, pongPaddleSize/2, pongHeight-pongPaddleSize/2)
	} else if p.ballY < p.paddleB-pongPaddleStep/2 {
		p.paddleB = clip01(p.paddleB-pongPaddleStep*0.85, pongPaddleSize/2, pongHeight-pongPaddleSize/2)
	}

	p.ballX += p.velX
	p.ballY += p.velY
	// Wall bounces.
	if p.ballY <= 0 {
		p.ballY, p.velY = -p.ballY, -p.velY
	} else if p.ballY >= pongHeight {
		p.ballY, p.velY = 2*pongHeight-p.ballY, -p.velY
	}

	var reward float64
	// Paddle bounces and scoring.
	if p.ballX <= 0 {
		if math.Abs(p.ballY-p.paddleA) <= pongPaddleSize/2 {
			p.ballX, p.velX = -p.ballX, -p.velX
			// Impart spin based on hit offset.
			p.velY += float64((p.ballY - p.paddleA) * 0.05)
		} else {
			p.scoreB++
			reward = -1
			p.serve()
		}
	} else if p.ballX >= pongWidth {
		if math.Abs(p.ballY-p.paddleB) <= pongPaddleSize/2 {
			p.ballX, p.velX = 2*pongWidth-p.ballX, -p.velX
			p.velY += float64((p.ballY - p.paddleB) * 0.05)
		} else {
			p.scoreA++
			reward = 1
			p.serve()
		}
	}

	done := p.scoreA >= pongPointsWin || p.scoreB >= pongPointsWin || p.steps >= pongMaxSteps
	return p.obs(), reward, done
}

func clip01(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
