package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// step is one training-loop iteration of an annotate schedule: how many
// kernels its inference call launches, how many simulator calls follow,
// and whether a backpropagation step closes it.
type step struct {
	kernels   uint8
	simCalls  uint8
	backprop  bool
	kernelDur vclock.Duration
	copyBytes int
}

// schedule is a seeded program for the profiler's public annotation API:
// `sessions` simulated processes, each replaying its own step list through
// Session.{SetPhase,WithOperation,CallSimulator,CallBackend,Python} and
// cuda.Context.{LaunchKernel,MemcpyAsync,StreamSynchronize}. The random
// draws happen here, at set-up, so replaying it costs only what the
// profiler costs.
type schedule struct {
	workload string
	labels   map[string]string
	seed     int64
	steps    [][]step // per session
}

// mix bounds the per-step draws of a schedule.
type mix struct {
	kernelsLo, kernelsHi int // kernels per inference call
	simLo, simHi         int // simulator calls per step
	backpropEvery        int
}

var (
	// gpuHeavy: many short kernels per step, one simulator call.
	gpuHeavy = mix{kernelsLo: 8, kernelsHi: 14, simLo: 1, simHi: 1, backpropEvery: 4}
	// simHeavy: many simulator calls and language transitions, few kernels.
	simHeavy = mix{kernelsLo: 1, kernelsHi: 2, simLo: 6, simHi: 10, backpropEvery: 16}
	// balanced is the fixture mix of the live and serve workloads.
	balanced = mix{kernelsLo: 3, kernelsHi: 6, simLo: 2, simHi: 4, backpropEvery: 8}
)

var (
	phaseNames  = []string{"warmup", "collect", "train", "evaluate"}
	kernelNames = []string{"gemm_128x64", "relu_fwd", "bias_add", "softmax_fwd", "adam_update", "reduce_sum"}
	glueCost    = vclock.Jittered(8*vclock.Microsecond, 0.25)
	simStepCost = vclock.Jittered(40*vclock.Microsecond, 0.2)
)

// phasesPerSession is how many SetPhase calls a session makes; each phase
// is a window the analysis shards by.
const phasesPerSession = 8

func newSchedule(workload string, seed int64, m mix, sessions, steps int) *schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{workload: workload, seed: seed, steps: make([][]step, sessions)}
	for i := range s.steps {
		s.steps[i] = make([]step, steps)
		for n := range s.steps[i] {
			s.steps[i][n] = step{
				kernels:   uint8(m.kernelsLo + rng.Intn(m.kernelsHi-m.kernelsLo+1)),
				simCalls:  uint8(m.simLo + rng.Intn(m.simHi-m.simLo+1)),
				backprop:  n%m.backpropEvery == m.backpropEvery-1,
				kernelDur: vclock.Duration(2+rng.Intn(30)) * vclock.Microsecond,
				copyBytes: 1 << (8 + rng.Intn(8)),
			}
		}
	}
	return s
}

// annotate replays the schedule into a fresh profiler with every
// book-keeping path on and closes its sessions. Each session owns its
// device, so the trace is a pure function of the schedule.
func (s *schedule) annotate() *profiler.Profiler {
	p := profiler.New(profiler.Options{Workload: s.workload, Flags: trace.Full(), Seed: s.seed})
	root := trace.ProcID(-1)
	for i, steps := range s.steps {
		sess := p.NewProcess(fmt.Sprintf("worker_%d", i), root, 0)
		if i == 0 {
			root = sess.Proc()
		}
		ctx := cuda.NewContext(sess, gpu.NewDevice(-1), cuda.DefaultCosts())
		phaseLen := max(len(steps)/phasesPerSession, 1)
		for n := range steps {
			st := &steps[n]
			if n%phaseLen == 0 {
				sess.SetPhase(phaseNames[(n/phaseLen)%len(phaseNames)])
			}
			sess.WithOperation("inference", func() {
				sess.CallBackend("forward", func() {
					for k := 0; k < int(st.kernels); k++ {
						ctx.LaunchKernel(kernelNames[k%len(kernelNames)], st.kernelDur)
					}
					ctx.MemcpyAsync(cuda.DeviceToHost, st.copyBytes)
					ctx.StreamSynchronize()
				})
			})
			sess.WithOperation("simulation", func() {
				for c := 0; c < int(st.simCalls); c++ {
					sess.Python(glueCost)
					sess.CallSimulator("env.step", func() { sess.Clock().Spend(simStepCost) })
				}
			})
			if st.backprop {
				sess.WithOperation("backpropagation", func() {
					sess.CallBackend("train_step", func() {
						ctx.MemcpyAsync(cuda.HostToDevice, st.copyBytes)
						for k := 0; k < 2*int(st.kernels); k++ {
							ctx.LaunchKernel(kernelNames[k%len(kernelNames)], st.kernelDur)
						}
						ctx.StreamSynchronize()
					})
				})
			}
		}
		sess.Close()
	}
	return p
}

// trace annotates and assembles the schedule's trace, labels attached.
func (s *schedule) trace() (*trace.Trace, error) {
	tr, err := s.annotate().Trace()
	if err != nil {
		return nil, err
	}
	tr.Meta.Labels = s.labels
	return tr, nil
}

// writeTrace persists tr the way Profiler.WriteTo does: the library's
// default chunk size and format.
func writeTrace(dir string, tr *trace.Trace) error {
	w, err := trace.NewWriter(dir, 0)
	if err != nil {
		return err
	}
	w.Append(tr.Events...)
	return w.Close(tr.Meta)
}
