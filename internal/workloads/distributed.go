package workloads

// Distributed actor/learner workloads (SEED/IMPALA-style splits): N
// simulated actor hosts step environments and ship trajectories to one
// learner host, which runs the gradient updates and broadcasts fresh policy
// parameters back. Each host is its own Profiler with its own seeded
// vclock.Clock, deliberately started at a skewed origin — the per-machine
// clocks of a real cluster — and emits its own trace. Every cross-host
// message leaves a paired pair of Network CPU events ("net.send:<id>" on
// the sender, "net.recv:<id>" on the receiver) whose shared id lets
// multihost.Merge recover inter-host clock offsets from the traces alone.

import (
	"fmt"
	"math/rand"

	"repro/internal/backend"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/nn"
	"repro/internal/profiler"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// OpCommunication annotates cross-host send/recv blocks, giving network
// time its own operation row next to inference/simulation/backpropagation.
const OpCommunication = "communication"

// LearnerHost is the learner's host name in a distributed run.
const LearnerHost = "learner"

// ActorHost names the i-th actor host ("actor00", "actor01", ...).
func ActorHost(i int) string { return fmt.Sprintf("actor%02d", i) }

// DefaultMaxSkew bounds the clock-origin skew injected per host.
const DefaultMaxSkew = 2 * vclock.Millisecond

// MaxActors bounds a distributed run's size; multihost.Merge relies on
// host process-id ranges staying well inside its per-host remap stride.
const MaxActors = 64

// DistributedSpec describes one actor/learner-split training run.
type DistributedSpec struct {
	// Actors is the number of actor hosts feeding the learner.
	Actors int
	// Algo must be an off-policy algorithm (DQN, DDPG, TD3, SAC): the
	// split is replay-based — actors collect with a policy snapshot,
	// the learner trains from shipped transitions.
	Algo string
	// Env is one of sim.SurveyNames.
	Env string
	// Model is the ML backend execution model.
	Model backend.ExecModel
	// TotalSteps is the environment-step budget per actor.
	TotalSteps int
	// Seed drives every stochastic component, including the injected
	// per-host clock skews and wire latencies.
	Seed int64
}

// Name labels the workload in traces and reports.
func (s DistributedSpec) Name() string {
	return fmt.Sprintf("dist-%s-%s-%s-a%d", s.Algo, s.Env, s.Model, s.Actors)
}

// HostRun is one host's slice of a distributed run.
type HostRun struct {
	// Host is the simulated machine name ("learner", "actor00", ...),
	// also recorded in Trace.Meta.Host.
	Host string
	// Trace is the host's own event trace, on the host's own skewed
	// clock.
	Trace *trace.Trace
	// Skew is the injected true clock-origin offset (local = true time
	// + Skew). Ground truth for tests; a real deployment would not
	// know it — multihost.Merge re-estimates it from send/recv pairs.
	Skew vclock.Duration
}

// distHost is one simulated machine during a distributed run.
type distHost struct {
	name  string
	prof  *profiler.Profiler
	sess  *profiler.Session
	skew  vclock.Duration
	agent rl.Agent
	env   sim.Env
	obs   [][]float64
}

// toGlobal converts a host-local instant to true (cluster) time.
func (h *distHost) toGlobal(t vclock.Time) vclock.Time { return t - vclock.Time(h.skew) }

// toLocal converts a true instant to the host's local clock.
func (h *distHost) toLocal(t vclock.Time) vclock.Time { return t + vclock.Time(h.skew) }

// xferCost models the CPU side of moving bytes across the wire:
// serialization plus socket write on the sender, read plus deserialization
// on the receiver (~2 GB/s memcpy-bound marshaling atop a fixed syscall
// floor).
func xferCost(bytes int) vclock.Dist {
	return vclock.Jittered(8*vclock.Microsecond+vclock.Duration(bytes/2)*vclock.Nanosecond, 0.15)
}

// RunDistributed executes the actor/learner workload and returns one
// HostRun per simulated machine, learner first, actors in index order.
//
// The run is lock-step and single-threaded: causality crosses hosts only
// through computed message-arrival instants (send-completion in true time
// plus a seeded wire latency), so the whole multi-host run — including
// every host's trace bytes — is a pure function of the spec and flags.
func RunDistributed(spec DistributedSpec, flags trace.FeatureFlags) ([]HostRun, error) {
	if spec.Actors < 1 || spec.Actors > MaxActors {
		return nil, fmt.Errorf("workloads: Actors must be in [1,%d], got %d", MaxActors, spec.Actors)
	}
	if spec.TotalSteps <= 0 {
		return nil, fmt.Errorf("workloads: TotalSteps must be positive")
	}
	base := Spec{Algo: spec.Algo, Env: spec.Env, Model: spec.Model, TotalSteps: spec.TotalSteps, Seed: spec.Seed}

	skewRng := rand.New(rand.NewSource(spec.Seed*7907 + 11))
	wireRng := rand.New(rand.NewSource(spec.Seed*6311 + 29))
	latency := func() vclock.Duration {
		return 40*vclock.Microsecond + vclock.Duration(wireRng.Int63n(int64(20*vclock.Microsecond)))
	}

	newHost := func(i int, name string) (*distHost, error) {
		skew := vclock.Duration(skewRng.Int63n(int64(DefaultMaxSkew)))
		p := profiler.New(profiler.Options{
			Workload: spec.Name(),
			Host:     name,
			Flags:    flags,
			Seed:     spec.Seed + int64(i)*1_000_003,
		})
		sess := p.NewProcess(name, -1, vclock.Time(skew))
		ctx := cuda.NewContext(sess, gpu.NewDevice(-1), cuda.DefaultCosts())
		b := backend.New(sess, ctx, spec.Model)
		env, err := sim.New(spec.Env, spec.Seed+29+int64(i)*997)
		if err != nil {
			return nil, err
		}
		agent, err := newAgent(base, b, env)
		if err != nil {
			return nil, err
		}
		if agent.OnPolicy() {
			return nil, fmt.Errorf("workloads: distributed mode needs an off-policy algorithm (replay-based actor/learner split), %s is on-policy", spec.Algo)
		}
		if agent.NumEnvs() != 1 {
			return nil, fmt.Errorf("workloads: distributed mode expects single-env collection, %s uses %d envs", spec.Algo, agent.NumEnvs())
		}
		return &distHost{name: name, prof: p, sess: sess, skew: skew, agent: agent, env: env}, nil
	}

	learner, err := newHost(0, LearnerHost)
	if err != nil {
		return nil, err
	}
	actors := make([]*distHost, spec.Actors)
	for i := range actors {
		if actors[i], err = newHost(i+1, ActorHost(i)); err != nil {
			return nil, err
		}
	}

	// send ships one message: a Network send event on the sender, then a
	// Network recv event on the receiver blocking until the message's
	// arrival instant (send completion in true time plus wire latency),
	// both inside communication operation annotations and paired by id.
	send := func(from, to *distHost, id string, bytes int) {
		var sendEnd vclock.Time
		from.sess.WithOperation(OpCommunication, func() {
			sendEnd = from.sess.NetSend(id, xferCost(bytes))
		})
		arrival := to.toLocal(from.toGlobal(sendEnd) + vclock.Time(latency()))
		to.sess.WithOperation(OpCommunication, func() {
			to.sess.NetRecv(id, arrival, xferCost(bytes))
		})
	}

	// Parameter payload: the policy network weights the learner
	// broadcasts each round (backend.Network sizes the float32
	// footprint). Trajectory payload: float64 obs/next/act plus
	// reward and done per transition.
	obsDim, actDim := learner.env.ObsDim(), learner.env.ActDim()
	refRng := rand.New(rand.NewSource(spec.Seed + 101))
	paramBytes := backend.NewNetwork(refRng, "policy_sync",
		[]int{obsDim, 64, 64, actDim}, nn.ReLU, nn.Identity).ParamBytes()
	transBytes := 8 * (2*obsDim + actDim + 2)

	learner.sess.SetPhase("training")
	for _, a := range actors {
		a.sess.SetPhase("training")
		a.obs = make([][]float64, 1)
		a.sess.WithOperation(OpSimulation, func() {
			a.sess.CallSimulator(a.env.Name()+".reset", func() {
				a.sess.Clock().Spend(a.env.ResetCost())
				a.obs[0] = a.env.Reset()
			})
		})
	}

	stepsDone := 0
	for round := 0; stepsDone < spec.TotalSteps; round++ {
		// 1. The learner broadcasts the current policy parameters.
		for _, a := range actors {
			send(learner, a, fmt.Sprintf("r%d:%s->%s", round, LearnerHost, a.name), paramBytes)
		}

		// 2. Each actor collects one segment with its policy snapshot.
		segment := learner.agent.CollectSteps()
		if rem := spec.TotalSteps - stepsDone; segment > rem {
			segment = rem
		}
		trajs := make([][]rl.Transition, len(actors))
		for ai, a := range actors {
			for step := 0; step < segment; step++ {
				var acts [][]float64
				a.sess.WithOperation(OpInference, func() {
					acts = a.agent.ActBatch(a.obs)
				})
				a.sess.WithOperation(OpSimulation, func() {
					a.sess.Python(stepGlueCost)
					a.sess.CallSimulator(a.env.Name()+".step", func() {
						a.sess.Clock().Spend(a.env.StepCost())
						next, reward, done := a.env.Step(acts[0])
						trajs[ai] = append(trajs[ai], rl.Transition{
							Obs: a.obs[0], Act: acts[0], Reward: reward,
							Next: next, Done: done,
						})
						a.obs[0] = next
					})
					if tr := trajs[ai][len(trajs[ai])-1]; tr.Done {
						a.sess.CallSimulator(a.env.Name()+".reset", func() {
							a.sess.Clock().Spend(a.env.ResetCost())
							a.obs[0] = a.env.Reset()
						})
					}
				})
			}
			// 3. Ship the segment's trajectory to the learner.
			send(a, learner, fmt.Sprintf("r%d:%s->%s", round, a.name, LearnerHost),
				len(trajs[ai])*transBytes)
		}

		// 4. The learner folds trajectories into its replay buffer
		// (high-level code, like any replay insert) and trains.
		for ai := range trajs {
			learner.sess.Python(vclock.Jittered(
				vclock.Duration(len(trajs[ai]))*2*vclock.Microsecond, 0.2))
			for _, tr := range trajs[ai] {
				learner.agent.Observe(0, tr)
			}
		}
		for u, n := 0, learner.agent.UpdatesPerCollect(); u < n; u++ {
			learner.sess.WithOperation(OpBackpropagation, func() {
				learner.agent.Update()
			})
		}
		stepsDone += segment
	}

	hosts := append([]*distHost{learner}, actors...)
	runs := make([]HostRun, 0, len(hosts))
	for _, h := range hosts {
		h.sess.Close()
		t, err := h.prof.Trace()
		if err != nil {
			return nil, err
		}
		if err := h.prof.Release(); err != nil {
			return nil, err
		}
		runs = append(runs, HostRun{Host: h.name, Trace: t, Skew: h.skew})
	}
	return runs, nil
}
