package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func allEnvs(t *testing.T) []Env {
	t.Helper()
	var envs []Env
	for _, name := range SurveyNames {
		e, err := New(name, 7)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		envs = append(envs, e)
	}
	return envs
}

func randomAction(rng *rand.Rand, e Env) []float64 {
	if e.Discrete() {
		return []float64{float64(rng.Intn(e.ActDim()))}
	}
	act := make([]float64, e.ActDim())
	for i := range act {
		act[i] = 2*rng.Float64() - 1
	}
	return act
}

func TestEnvContract(t *testing.T) {
	for _, e := range allEnvs(t) {
		t.Run(e.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			obs := e.Reset()
			if len(obs) != e.ObsDim() {
				t.Fatalf("Reset obs len %d, want %d", len(obs), e.ObsDim())
			}
			for i := 0; i < 500; i++ {
				obs, r, done := e.Step(randomAction(rng, e))
				if len(obs) != e.ObsDim() {
					t.Fatalf("step %d: obs len %d, want %d", i, len(obs), e.ObsDim())
				}
				for j, v := range obs {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("step %d: obs[%d] = %v", i, j, v)
					}
				}
				if math.IsNaN(r) || math.IsInf(r, 0) {
					t.Fatalf("step %d: reward = %v", i, r)
				}
				if done {
					obs = e.Reset()
					if len(obs) != e.ObsDim() {
						t.Fatal("reset after done returned bad obs")
					}
				}
			}
		})
	}
}

func TestEnvCostModels(t *testing.T) {
	for _, e := range allEnvs(t) {
		if e.StepCost().Mean <= 0 {
			t.Fatalf("%s has no step cost", e.Name())
		}
		if e.ResetCost().Mean <= 0 {
			t.Fatalf("%s has no reset cost", e.Name())
		}
	}
}

func TestComplexityOrderingOfCosts(t *testing.T) {
	// Pong's *per-frame* emulation is cheap, but an agent step is four
	// frames plus screen extraction (frame-skip), so the per-step costs
	// of the low/medium environments are comparable; the high-complexity
	// AirLearning render dominates everything (F.12's 99.6% simulation
	// share needs this).
	walker, _ := New("Walker2D", 1)
	air, _ := New("AirLearning", 1)
	if air.StepCost().Mean < 100*walker.StepCost().Mean {
		t.Fatal("AirLearning must be >100x a robotics step")
	}
	if ant, _ := New("Ant", 1); ant.StepCost().Mean <= walker.StepCost().Mean {
		t.Fatal("Ant (8 joints) must cost more than Walker2D")
	}
	hopper, _ := New("Hopper", 1)
	if hopper.StepCost().Mean >= walker.StepCost().Mean {
		t.Fatal("Hopper (3 joints) must cost less than Walker2D")
	}
}

func TestDeterminismGivenSeed(t *testing.T) {
	for _, name := range SurveyNames {
		run := func() []float64 {
			e, _ := New(name, 42)
			rng := rand.New(rand.NewSource(5))
			e.Reset()
			var trace []float64
			for i := 0; i < 50; i++ {
				obs, r, done := e.Step(randomAction(rng, e))
				trace = append(trace, r, obs[0])
				if done {
					e.Reset()
				}
			}
			return trace
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: run diverged at %d (%v vs %v)", name, i, a[i], b[i])
			}
		}
	}
}

func TestPongScoring(t *testing.T) {
	p := NewPong(3)
	rng := rand.New(rand.NewSource(2))
	var sawReward bool
	for i := 0; i < 5000 && !sawReward; i++ {
		_, r, done := p.Step(randomAction(rng, p))
		if r != 0 {
			if r != 1 && r != -1 {
				t.Fatalf("pong reward %v, want ±1", r)
			}
			sawReward = true
		}
		if done {
			p.Reset()
		}
	}
	if !sawReward {
		t.Fatal("no point scored in 5000 random steps")
	}
}

func TestPongBallStaysInCourt(t *testing.T) {
	p := NewPong(4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		obs, _, done := p.Step(randomAction(rng, p))
		bx, by := obs[0], obs[1]
		if by < -0.05 || by > pongHeight+0.05 {
			t.Fatalf("ball escaped vertically: y=%v", by)
		}
		if bx < -0.05 || bx > pongWidth+0.05 {
			t.Fatalf("ball escaped horizontally: x=%v", bx)
		}
		if done {
			p.Reset()
		}
	}
}

func TestLinkageFallsUnderZeroTorque(t *testing.T) {
	w := NewWalker2D(5)
	w.Reset()
	zero := make([]float64, w.ActDim())
	done := false
	for i := 0; i < 1000 && !done; i++ {
		_, _, done = w.Step(zero)
	}
	if !done {
		t.Fatal("walker with zero torque should eventually fall or time out")
	}
}

func TestLinkageTorqueMovesBody(t *testing.T) {
	w := NewHopper(6)
	w.Reset()
	act := make([]float64, w.ActDim())
	for i := range act {
		act[i] = 1.0
	}
	for i := 0; i < 200; i++ {
		_, _, done := w.Step(act)
		if done {
			w.Reset()
		}
	}
	if w.vx == 0 && w.z == 1.1 {
		t.Fatal("constant torque produced no motion at all")
	}
}

func TestLinkageRewardIncludesCtrlCost(t *testing.T) {
	w := NewHalfCheetah(7)
	w.Reset()
	zero := make([]float64, w.ActDim())
	_, rZero, _ := w.Step(zero)
	w.Reset()
	big := make([]float64, w.ActDim())
	for i := range big {
		big[i] = 1
	}
	_, rBig, _ := w.Step(big)
	// With near-identical dynamics on step one, the control penalty must
	// separate the rewards.
	if rBig >= rZero {
		t.Fatalf("full-torque first-step reward (%v) should be below zero-torque (%v) via ctrl cost", rBig, rZero)
	}
}

func TestLinkageMorphologies(t *testing.T) {
	cases := []struct {
		env    Env
		joints int
	}{
		{NewHopper(1), 3},
		{NewWalker2D(1), 6},
		{NewHalfCheetah(1), 6},
		{NewAnt(1), 8},
	}
	for _, tc := range cases {
		if tc.env.ActDim() != tc.joints {
			t.Fatalf("%s ActDim = %d, want %d", tc.env.Name(), tc.env.ActDim(), tc.joints)
		}
		if tc.env.ObsDim() != 3+2*tc.joints {
			t.Fatalf("%s ObsDim = %d", tc.env.Name(), tc.env.ObsDim())
		}
	}
}

func TestAirLearningReachingGoalRewards(t *testing.T) {
	a := NewAirLearning(9)
	obs := a.Reset()
	// Fly straight at the goal using the observation's goal vector.
	var total float64
	for i := 0; i < airMaxSteps; i++ {
		dx, dy, dz := obs[6], obs[7], obs[8]
		n := math.Sqrt(dx*dx+dy*dy+dz*dz) + 1e-9
		act := []float64{dx / n, dy / n, dz / n, 0}
		var r float64
		var done bool
		obs, r, done = a.Step(act)
		total += r
		if done {
			break
		}
	}
	if total <= 0 {
		t.Fatalf("goal-seeking policy earned %v total reward, want > 0", total)
	}
}

func TestAirLearningCrashPenalty(t *testing.T) {
	a := NewAirLearning(10)
	a.Reset()
	// Full downward thrust until the episode ends.
	var last float64
	done := false
	for i := 0; i < airMaxSteps && !done; i++ {
		_, last, done = a.Step([]float64{0, 0, -1, 0})
	}
	if !done {
		t.Fatal("diving drone never terminated")
	}
	if last >= 0 {
		t.Fatalf("crash reward = %v, want negative", last)
	}
}

func TestTaxonomyCoversAllSurveyEnvs(t *testing.T) {
	tax := map[string]Complexity{}
	for _, s := range Taxonomy() {
		tax[s.Name] = s.Complexity
	}
	for _, name := range SurveyNames {
		if _, ok := tax[name]; !ok {
			t.Fatalf("taxonomy missing %s", name)
		}
	}
	if tax["Pong"] != Low || tax["Walker2D"] != Medium || tax["AirLearning"] != High {
		t.Fatal("taxonomy complexity assignments wrong")
	}
	if Low.String() != "low" || High.String() != "high" {
		t.Fatal("complexity names wrong")
	}
}

func TestUnknownEnvRejected(t *testing.T) {
	if _, err := New("Doom", 1); err == nil {
		t.Fatal("unknown environment accepted")
	}
}

// Property: observations stay bounded under random action sequences (no
// physics blow-up).
func TestLinkageStabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewWalker2D(seed)
		w.Reset()
		for i := 0; i < 300; i++ {
			obs, _, done := w.Step(randomAction(rng, w))
			for _, v := range obs {
				if math.IsNaN(v) || math.Abs(v) > 1e4 {
					return false
				}
			}
			if done {
				w.Reset()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStepCostDistSampling(t *testing.T) {
	e, _ := New("Walker2D", 1)
	rng := rand.New(rand.NewSource(1))
	d := e.StepCost()
	for i := 0; i < 100; i++ {
		if got := d.Sample(rng); got <= 0 || got > 2*d.Mean {
			t.Fatalf("step cost sample %v outside sane range (mean %v)", got, d.Mean)
		}
	}
	_ = vclock.Duration(0)
}
