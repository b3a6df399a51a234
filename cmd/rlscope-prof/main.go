// Command rlscope-prof is the rls-prof analogue: it runs one RL training
// workload under the profiler, writes the event trace to disk, analyzes it,
// and prints the cross-stack time breakdown.
//
// Usage:
//
//	rlscope-prof -algo TD3 -env Walker2D -framework graph -steps 2000 -out /tmp/trace
//	rlscope-prof -algo TD3 -env Walker2D -steps 2000 -serve http://localhost:8080 -trace-id run42
//
// With -serve, the trace is streamed chunk-by-chunk into a live
// rlscope-serve store (POST /v1/traces/{id}/chunks) and sealed, instead of
// (or in addition to) being written to a local -out directory.
//
// Repeatable -label k=v flags annotate the trace metadata; fleet queries
// (rlscope-query, POST /v1/query) filter and group traces by these labels.
//
// Every trace records its originating host (os.Hostname() unless -host
// overrides it); -distributed actors=N instead simulates an actor/learner
// cluster, writing one trace directory per simulated host plus a
// manifest.json under -out, ready for rlscope-merge.
//
// Frameworks: graph (stable-baselines), autograph (tf-agents),
// eager-tf (tf-agents eager), eager-pytorch (ReAgent).
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"repro/client"
	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/cli"
	"repro/internal/multihost"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func parseModel(s string) (backend.ExecModel, error) {
	switch strings.ToLower(s) {
	case "graph":
		return backend.Graph, nil
	case "autograph":
		return backend.Autograph, nil
	case "eager-tf", "eager":
		return backend.EagerTF, nil
	case "eager-pytorch", "pytorch":
		return backend.EagerPyTorch, nil
	default:
		return 0, cli.Usagef("unknown framework %q (graph|autograph|eager-tf|eager-pytorch)", s)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rlscope-prof", stderr)
	labels := map[string]string{}
	fs.Func("label", "attach a k=v label to the trace metadata (repeatable); fleet queries filter and group by labels", func(v string) error {
		k, val, ok := strings.Cut(v, "=")
		if !ok || k == "" {
			return fmt.Errorf("want -label key=value, got %q", v)
		}
		labels[k] = val
		return nil
	})
	var (
		algo      = fs.String("algo", "TD3", "RL algorithm: "+strings.Join(workloads.AlgorithmNames, "|"))
		env       = fs.String("env", "Walker2D", "simulator: AirLearning|Ant|HalfCheetah|Hopper|Pong|Walker2D")
		framework = fs.String("framework", "graph", "execution model / RL framework")
		steps     = fs.Int("steps", 2000, "environment steps to train for")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "trace output directory (omit to skip writing)")
		format    = fs.String("format", "v1", "chunk encoding for -out and -serve: v1 (row) or v2 (columnar)")
		serveURL  = fs.String("serve", "", "rlscope-serve base URL to stream the trace to (e.g. http://localhost:8080)")
		traceID   = fs.String("trace-id", "", "trace id to stream under (with -serve; default: the workload name)")
		instrOff  = fs.Bool("uninstrumented", false, "disable all profiler book-keeping")
		csv       = fs.Bool("csv", false, "emit the breakdown as CSV instead of a table")
		validate  = fs.Bool("validate", false, "calibrate, then validate overhead correction on this workload")
		host      = fs.String("host", "", "originating host recorded in the trace metadata (default: os.Hostname())")
		distrib   = fs.String("distributed", "", "simulate an actor/learner cluster, e.g. actors=3; writes one trace dir per host plus manifest.json under -out")
	)
	return cli.Run(ctx, fs, args, func() error {
		model, err := parseModel(*framework)
		if err != nil {
			return err
		}
		chunkFormat, err := trace.ParseFormat(*format)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		// The workloads do not watch ctx: a signal during one ends the
		// command once it returns, before anything is written, and a
		// second one kills the process.
		if *validate {
			spec := workloads.Spec{Algo: *algo, Env: *env, Model: model, TotalSteps: *steps}
			fmt.Fprintf(stderr, "rlscope-prof: calibrating and validating %s (2 trainings: one profiled 5 ways, one 2 ways)\n", spec.Name())
			v, err := calib.Validate(spec.Name(), workloads.Runner(spec), *seed, *seed+1000)
			if err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			fmt.Fprintln(stdout, v)
			return nil
		}
		flags := trace.Full()
		if *instrOff {
			flags = trace.Uninstrumented()
		}
		if *distrib != "" {
			return runDistributed(ctx, stderr, *distrib, *algo, *env, model, *steps, *seed, *out, chunkFormat, flags, labels)
		}
		if *host == "" {
			*host, _ = os.Hostname()
		}
		spec := workloads.Spec{Algo: *algo, Env: *env, Model: model, TotalSteps: *steps, Seed: *seed}
		fmt.Fprintf(stderr, "rlscope-prof: running %s (%d steps, %s)\n", spec.Name(), *steps, flags)
		stats, err := workloads.Run(spec, flags)
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(labels) > 0 {
			stats.Trace.Meta.Labels = labels
		}
		stats.Trace.Meta.Host = *host
		if *out != "" {
			w, err := trace.NewWriter(*out, 0, trace.WithFormat(chunkFormat))
			if err != nil {
				return err
			}
			w.Append(stats.Trace.Events...)
			if err := w.Close(stats.Trace.Meta); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "rlscope-prof: wrote %d events to %s\n", len(stats.Trace.Events), *out)
		}
		if *serveURL != "" {
			// Live ingest: stream the trace chunk-by-chunk into a running
			// rlscope-serve store and seal it — the same frames a local
			// -out write produces, delivered over the typed client's
			// network sink.
			id := *traceID
			if id == "" {
				id = strings.ReplaceAll(spec.Name(), "/", "-")
			}
			c := client.New(*serveURL)
			if _, err := c.Register(ctx, id); err != nil {
				return err
			}
			w := trace.NewSinkWriter(c.Sink(ctx, id), 0, trace.WithFormat(chunkFormat))
			w.Append(stats.Trace.Events...)
			if err := w.Close(stats.Trace.Meta); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "rlscope-prof: streamed %d events to %s as trace %q\n",
				len(stats.Trace.Events), *serveURL, id)
		}
		res := overlap.Compute(stats.Trace.ProcEvents(0))
		b := report.FromResult(spec.Name(), res, report.SortedOps(res))
		if *csv {
			_, err := io.WriteString(stdout, report.CSV([]*report.Breakdown{b}))
			return err
		}
		fmt.Fprint(stdout, report.Table("RL-Scope time breakdown", []*report.Breakdown{b}))
		fmt.Fprint(stdout, report.TransitionTable("Language transitions",
			report.Transitions(spec.Name(), res, report.SortedOps(res))))
		fmt.Fprintf(stdout, "total training time: %v\n", stats.Total)
		return nil
	})
}

// runDistributed handles -distributed: simulate the actor/learner cluster
// and write one trace directory per host plus manifest.json under out.
func runDistributed(ctx context.Context, stderr io.Writer, arg, algo, env string, model backend.ExecModel, steps int, seed int64, out string, format trace.Format, flags trace.FeatureFlags, labels map[string]string) error {
	v, ok := strings.CutPrefix(arg, "actors=")
	actors, err := strconv.Atoi(v)
	if !ok || err != nil {
		return cli.Usagef("want -distributed actors=N, got %q", arg)
	}
	if out == "" {
		return cli.Usagef("-distributed needs -out: each simulated host writes its own trace directory")
	}
	spec := workloads.DistributedSpec{Actors: actors, Algo: algo, Env: env, Model: model, TotalSteps: steps, Seed: seed}
	fmt.Fprintf(stderr, "rlscope-prof: running %s (%d steps/actor, %d hosts, %s)\n",
		spec.Name(), steps, actors+1, flags)
	runs, err := workloads.RunDistributed(spec, flags)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	man := multihost.Manifest{Workload: spec.Name(), Actors: actors, Steps: steps, Seed: seed}
	for _, r := range runs {
		if len(labels) > 0 {
			r.Trace.Meta.Labels = labels
		}
		w, err := trace.NewWriter(filepath.Join(out, r.Host), 0, trace.WithFormat(format))
		if err != nil {
			return err
		}
		w.Append(r.Trace.Events...)
		if err := w.Close(r.Trace.Meta); err != nil {
			return err
		}
		man.Hosts = append(man.Hosts, multihost.ManifestHost{
			Host: r.Host, Dir: r.Host, Events: len(r.Trace.Events), SkewNS: int64(r.Skew),
		})
	}
	if err := multihost.WriteManifest(out, &man); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "rlscope-prof: wrote %d host trace dirs + manifest.json to %s\n", len(runs), out)
	return nil
}
