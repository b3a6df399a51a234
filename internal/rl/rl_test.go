package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/backend"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestReplayBufferFIFOEviction(t *testing.T) {
	r := NewReplayBuffer(3, 1)
	for i := 0; i < 5; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	rewards := map[float64]bool{}
	for _, tr := range r.buf {
		rewards[tr.Reward] = true
	}
	// Oldest (0, 1) evicted; 2, 3, 4 retained.
	for _, want := range []float64{2, 3, 4} {
		if !rewards[want] {
			t.Fatalf("reward %v missing after eviction: %v", want, rewards)
		}
	}
}

func TestReplayBufferSample(t *testing.T) {
	r := NewReplayBuffer(10, 2)
	for i := 0; i < 10; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	s := r.Sample(100)
	if len(s) != 100 {
		t.Fatalf("Sample returned %d", len(s))
	}
	for _, tr := range s {
		if tr.Reward < 0 || tr.Reward > 9 {
			t.Fatalf("sampled alien transition %v", tr.Reward)
		}
	}
}

func TestReplayBufferCapacityProperty(t *testing.T) {
	f := func(adds uint16, capSeed uint8) bool {
		capacity := int(capSeed)%64 + 1
		r := NewReplayBuffer(capacity, 3)
		for i := 0; i < int(adds)%500; i++ {
			r.Add(Transition{Reward: float64(i)})
		}
		want := int(adds) % 500
		if want > capacity {
			want = capacity
		}
		return r.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayEmptySamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewReplayBuffer(4, 1).Sample(1)
}

func TestGAEMatchesHandComputation(t *testing.T) {
	ro := &Rollout{}
	// Two steps, no terminations: δ_t = r + γV_{t+1} − V_t.
	ro.Add(nil, nil, 1.0, false, 0.5, 0) // V0=0.5
	ro.Add(nil, nil, 2.0, false, 1.0, 0) // V1=1.0
	ro.LastValue = 3.0
	gamma, lambda := 0.9, 0.8
	adv, ret := ro.GAE(gamma, lambda)
	d1 := 2.0 + gamma*3.0 - 1.0 // 3.7
	d0 := 1.0 + gamma*1.0 - 0.5 // 1.4
	wantA1 := d1
	wantA0 := d0 + gamma*lambda*d1
	if math.Abs(adv[1]-wantA1) > 1e-12 || math.Abs(adv[0]-wantA0) > 1e-12 {
		t.Fatalf("adv = %v, want [%v %v]", adv, wantA0, wantA1)
	}
	if math.Abs(ret[0]-(wantA0+0.5)) > 1e-12 {
		t.Fatalf("ret[0] = %v", ret[0])
	}
}

func TestGAETerminalCutsBootstrap(t *testing.T) {
	ro := &Rollout{}
	ro.Add(nil, nil, 1.0, true, 0.5, 0)
	ro.LastValue = 100 // must be ignored: episode ended
	adv, _ := ro.GAE(0.99, 0.95)
	want := 1.0 - 0.5
	if math.Abs(adv[0]-want) > 1e-12 {
		t.Fatalf("terminal adv = %v, want %v", adv[0], want)
	}
}

func TestNormalizeAdvantages(t *testing.T) {
	adv := []float64{1, 2, 3, 4}
	NormalizeAdvantages(adv)
	var mean float64
	for _, a := range adv {
		mean += a
	}
	mean /= 4
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("normalized mean = %v", mean)
	}
	var varsum float64
	for _, a := range adv {
		varsum += (a - mean) * (a - mean)
	}
	if std := math.Sqrt(varsum / 4); math.Abs(std-1) > 1e-9 {
		t.Fatalf("normalized std = %v", std)
	}
	NormalizeAdvantages(nil) // must not panic
}

// newTestBackend builds a minimal profiled backend for agent smoke tests.
func newTestBackend(t *testing.T, model backend.ExecModel, seed int64) (*backend.Backend, *profiler.Profiler, *profiler.Session) {
	t.Helper()
	p := profiler.New(profiler.Options{Workload: "rl-test", Flags: trace.Uninstrumented(), Seed: seed})
	s := p.NewProcess("trainer", -1, 0)
	ctx := cuda.NewContext(s, gpu.NewDevice(-1), cuda.DefaultCosts())
	return backend.New(s, ctx, model), p, s
}

// driveAgent runs a small end-to-end loop: collect → update, repeatedly,
// with one environment instance per vectorized slot.
func driveAgent(t *testing.T, agent Agent, makeEnv func(seed int64) sim.Env, cycles int) {
	t.Helper()
	envs := make([]sim.Env, agent.NumEnvs())
	obs := make([][]float64, len(envs))
	for e := range envs {
		envs[e] = makeEnv(int64(e) + 3)
		obs[e] = envs[e].Reset()
	}
	for c := 0; c < cycles; c++ {
		n := agent.CollectSteps()
		if n > 50 {
			n = 50 // keep tests fast
		}
		for i := 0; i < n; i++ {
			acts := agent.ActBatch(obs)
			if len(acts) != len(envs) {
				t.Fatalf("ActBatch returned %d actions for %d envs", len(acts), len(envs))
			}
			for e := range envs {
				next, r, done := envs[e].Step(acts[e])
				agent.Observe(e, Transition{Obs: obs[e], Act: acts[e], Reward: r, Next: next, Done: done})
				obs[e] = next
				if done {
					obs[e] = envs[e].Reset()
				}
			}
		}
		updates := agent.UpdatesPerCollect()
		if updates > 3 {
			updates = 3
		}
		for u := 0; u < updates; u++ {
			agent.Update()
		}
	}
}

func TestAgentsSmokeOnWalker(t *testing.T) {
	for _, name := range []string{"DDPG", "TD3", "SAC", "A2C", "PPO2"} {
		t.Run(name, func(t *testing.T) {
			b, p, s := newTestBackend(t, backend.Graph, 11)
			env := sim.NewWalker2D(3)
			cfg := Config{
				Backend: b, ObsDim: env.ObsDim(), ActDim: env.ActDim(),
				Seed: 5, BatchSize: 16, Hidden: []int{16, 16},
			}
			var agent Agent
			switch name {
			case "DDPG":
				agent = NewDDPG(cfg)
			case "TD3":
				agent = NewTD3(cfg)
			case "SAC":
				agent = NewSAC(cfg)
			case "A2C":
				agent = NewA2C(cfg)
			case "PPO2":
				agent = NewPPO2(cfg)
			}
			if agent.Name() != name {
				t.Fatalf("Name = %q", agent.Name())
			}
			driveAgent(t, agent, func(seed int64) sim.Env { return sim.NewWalker2D(seed) }, 3)
			s.Close()
			tr := p.MustTrace()
			if tr.CountKind(trace.KindGPU) == 0 {
				t.Fatal("agent issued no GPU work")
			}
			// Actions must be bounded controls.
			probe := make([][]float64, agent.NumEnvs())
			for e := range probe {
				probe[e] = env.Reset()
			}
			for _, act := range agent.ActBatch(probe) {
				for _, a := range act {
					if math.IsNaN(a) || a < -1.001 || a > 1.001 {
						t.Fatalf("action out of bounds: %v", act)
					}
				}
			}
		})
	}
}

func TestDQNSmokeOnPong(t *testing.T) {
	b, p, s := newTestBackend(t, backend.Graph, 13)
	env := sim.NewPong(3)
	agent := NewDQN(Config{
		Backend: b, ObsDim: env.ObsDim(), ActDim: env.ActDim(),
		Discrete: true, Seed: 5, BatchSize: 16, Hidden: []int{16, 16},
	})
	// Replay warmup then updates.
	driveAgent(t, agent, func(seed int64) sim.Env { return sim.NewPong(seed) }, 60)
	if agent.UpdatesPerCollect() == 0 {
		t.Fatal("DQN never became update-ready")
	}
	s.Close()
	_ = p.MustTrace()
	act := agent.Act(env.Reset())
	if a := int(act[0]); a < 0 || a >= env.ActDim() {
		t.Fatalf("DQN action %d out of range", a)
	}
}

func TestDQNRejectsContinuousEnv(t *testing.T) {
	b, _, _ := newTestBackend(t, backend.Graph, 17)
	defer func() {
		if recover() == nil {
			t.Fatal("DQN accepted continuous env")
		}
	}()
	NewDQN(Config{Backend: b, ObsDim: 4, ActDim: 2, Discrete: false, Seed: 1})
}

func TestOnPolicyClassification(t *testing.T) {
	b, _, _ := newTestBackend(t, backend.Graph, 19)
	cfg := Config{Backend: b, ObsDim: 4, ActDim: 2, Seed: 1, Hidden: []int{8}}
	if NewDDPG(cfg).OnPolicy() || NewTD3(cfg).OnPolicy() || NewSAC(cfg).OnPolicy() {
		t.Fatal("off-policy algorithms misclassified")
	}
	if !NewA2C(cfg).OnPolicy() || !NewPPO2(cfg).OnPolicy() {
		t.Fatal("on-policy algorithms misclassified")
	}
}

func TestCollectStepsHyperparameters(t *testing.T) {
	b, _, _ := newTestBackend(t, backend.Graph, 23)
	cfg := Config{Backend: b, ObsDim: 4, ActDim: 2, Seed: 1, Hidden: []int{8}}
	if got := NewTD3(cfg).CollectSteps(); got != 1000 {
		t.Fatalf("TD3 CollectSteps = %d, want 1000 (paper F.5)", got)
	}
	if got := NewDDPG(cfg).CollectSteps(); got != 100 {
		t.Fatalf("DDPG CollectSteps = %d, want 100 (paper F.5)", got)
	}
	cfg.CollectStepsOverride = 1000
	if got := NewDDPG(cfg).CollectSteps(); got != 1000 {
		t.Fatalf("override ignored: %d", got)
	}
}

// actorMean returns the actor's deterministic first-dimension output for one
// observation, bypassing the backend and exploration noise.
func (d *DDPG) actorMean(obs []float64) float64 {
	x := obsTensor([][]float64{obs})
	for _, l := range d.actor.MLP.Layers {
		x = l.Forward(x)
	}
	return x.At(0, 0)
}

func TestDDPGLearnsOnToyProblem(t *testing.T) {
	// Sanity check that the actor-critic machinery optimizes: a 1-D
	// bandit where reward = −(a−0.5)². After training, the actor should
	// move its action toward 0.5 from wherever it started.
	b, _, s := newTestBackend(t, backend.Graph, 29)
	agent := NewDDPG(Config{
		Backend: b, ObsDim: 1, ActDim: 1, Seed: 7, BatchSize: 32, Hidden: []int{32, 32},
	})
	obs := []float64{0}
	before := agent.actorMean(obs)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 600; i++ {
		act := []float64{rng.Float64()*2 - 1} // exploratory coverage
		r := -(act[0] - 0.5) * (act[0] - 0.5)
		agent.Observe(0, Transition{Obs: obs, Act: act, Reward: r, Next: obs, Done: true})
	}
	for i := 0; i < 150; i++ {
		agent.Update()
	}
	after := agent.actorMean(obs)
	s.Close()
	if math.Abs(after-0.5) >= math.Abs(before-0.5) {
		t.Fatalf("actor did not move toward optimum: before=%v after=%v", before, after)
	}
}

func TestGaussLogpAgainstClosedForm(t *testing.T) {
	// N(1; 0, 1) → −0.5−0.5·log2π; N(1; 1, 4) → −log2−0.5·log2π.
	for _, c := range []struct{ x, mean, logStd, want float64 }{
		{1, 0, 0, -0.5 - 0.5*math.Log(2*math.Pi)},
		{1, 1, math.Log(2), -math.Log(2) - 0.5*math.Log(2*math.Pi)},
	} {
		if got := gaussLogp(c.x, c.mean, c.logStd); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("gaussLogp(%v; %v, e^%v) = %v, want %v", c.x, c.mean, c.logStd, got, c.want)
		}
	}
}

func TestGaussianNoiseClips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		out := gaussianNoise(rng, []float64{0.99, -0.99}, 0.5)
		for _, v := range out {
			if v < -1 || v > 1 {
				t.Fatalf("noise escaped bounds: %v", v)
			}
		}
	}
}

func TestConcatAndSplit(t *testing.T) {
	obs := [][]float64{{1, 2}, {3, 4}}
	act := [][]float64{{5}, {6}}
	c := concatTensor(obs, act)
	if c.Rows != 2 || c.Cols != 3 || c.At(0, 2) != 5 || c.At(1, 0) != 3 {
		t.Fatalf("concat = %+v", c)
	}
	g := splitCriticInputGrad(c, 2)
	if g.Rows != 2 || g.Cols != 1 || g.At(0, 0) != 5 || g.At(1, 0) != 6 {
		t.Fatalf("split = %+v", g)
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 3)
	probs := []float64{0.2, 0.5, 0.3}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[sampleCategorical(rng, probs)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("category %d frequency %v, want ~%v", i, got, p)
		}
	}
}
