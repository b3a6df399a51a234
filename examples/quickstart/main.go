// Quickstart: profile a hand-written training loop with RL-Scope.
//
// This example shows the core public API — annotate high-level operations,
// let the interception wrappers record simulator/backend/CUDA activity,
// then run the cross-stack overlap analysis and print where the time went.
//
//	go run ./examples/quickstart
//
// With -out DIR the collected trace is also written as a chunked trace
// directory, ready for rlscope-analyze or rlscope-serve.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	rlscope "repro"
	"repro/internal/cli"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/vclock"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("quickstart", stderr)
	out := fs.String("out", "", "also write the trace to this directory")
	return cli.Run(ctx, fs, args, func() error {
		p := rlscope.New(rlscope.Options{
			Workload: "quickstart",
			Flags:    rlscope.FullInstrumentation(),
			Seed:     1,
		})
		dev := gpu.NewDevice(-1)
		sess := p.NewProcess("trainer", -1, 0)
		cu := cuda.NewContext(sess, dev, cuda.DefaultCosts())

		sess.SetPhase("training")
		for step := 0; step < 100; step++ {
			// Inference: a small forward pass on the (simulated) GPU.
			sess.WithOperation("inference", func() {
				sess.CallBackend("policy.forward", func() {
					for k := 0; k < 3; k++ {
						cu.LaunchKernel("dense", 3*vclock.Microsecond)
					}
					cu.StreamSynchronize()
				})
			})
			// Simulation: CPU-bound work inside the simulator library.
			sess.WithOperation("simulation", func() {
				sess.CallSimulator("env.step", func() {
					sess.Clock().Advance(120 * vclock.Microsecond)
				})
			})
			// Backpropagation every 4 steps.
			if step%4 == 3 {
				sess.WithOperation("backpropagation", func() {
					sess.Python(vclock.Exact(120 * vclock.Microsecond)) // minibatch assembly
					sess.CallBackend("train_step", func() {
						cu.MemcpyAsync(cuda.HostToDevice, 64*1024)
						for k := 0; k < 9; k++ {
							cu.LaunchKernel("dense_grad", 5*vclock.Microsecond)
						}
						cu.StreamSynchronize()
					})
				})
			}
		}
		sess.Close()

		tr, err := p.Trace()
		if err != nil {
			return err
		}
		if *out != "" {
			if err := p.WriteTo(*out); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d events to %s\n", len(tr.Events), *out)
		}
		rep, err := rlscope.NewEngine(rlscope.WithWorkers(1), rlscope.WithProcesses(sess.Proc())).
			Analyze(ctx, rlscope.FromTrace(tr))
		if err != nil {
			return err
		}
		res := rep.Results[sess.Proc()]
		b := report.FromResult("quickstart", res, report.SortedOps(res))
		fmt.Fprint(stdout, report.Table("RL-Scope quickstart breakdown", []*report.Breakdown{b}))
		fmt.Fprintf(stdout, "\ntotal: %v, GPU-bound: %v (%.1f%%)\n",
			res.Total(), res.TotalGPUTime(),
			100*res.TotalGPUTime().Seconds()/res.Total().Seconds())
		return nil
	})
}
