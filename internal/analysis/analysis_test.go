package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// dump renders a Result deterministically so byte-level comparison is
// meaningful.
func dump(r *overlap.Result) string {
	var sb strings.Builder
	keys := make([]overlap.Key, 0, len(r.ByKey))
	for k := range r.ByKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Res != b.Res {
			return a.Res < b.Res
		}
		return a.Cat < b.Cat
	})
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s|%d|%d=%d\n", k.Op, k.Res, k.Cat, r.ByKey[k])
	}
	tkeys := make([]overlap.TransitionKey, 0, len(r.Transitions))
	for k := range r.Transitions {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool {
		if tkeys[i].Op != tkeys[j].Op {
			return tkeys[i].Op < tkeys[j].Op
		}
		return tkeys[i].Label < tkeys[j].Label
	})
	for _, k := range tkeys {
		fmt.Fprintf(&sb, "trans:%s|%s=%d\n", k.Op, k.Label, r.Transitions[k])
	}
	fmt.Fprintf(&sb, "span=[%d,%d]\n", r.SpanStart, r.SpanEnd)
	return sb.String()
}

// dumpAll renders a per-process result map deterministically.
func dumpAll(m map[trace.ProcID]*overlap.Result) string {
	procs := make([]trace.ProcID, 0, len(m))
	for p := range m {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	var sb strings.Builder
	for _, p := range procs {
		fmt.Fprintf(&sb, "== proc %d ==\n%s", p, dump(m[p]))
	}
	return sb.String()
}

// randomTrace generates an adversarial trace: overlapping phases, events
// spanning phase boundaries, point markers on exact boundaries, processes
// without phases, processes with only markers.
func randomTrace(rng *rand.Rand) *trace.Trace {
	tr := &trace.Trace{Meta: trace.Meta{Workload: "random", Procs: map[trace.ProcID]trace.ProcInfo{}}}
	procs := 1 + rng.Intn(4)
	ops := []string{"inference", "simulation", "backpropagation", "mcts"}
	cpuCats := []trace.Category{trace.CatPython, trace.CatSimulator, trace.CatBackend, trace.CatCUDA}
	gpuCats := []trace.Category{trace.CatGPUKernel, trace.CatGPUMemcpy}
	labels := []string{trace.TransPythonToBackend, trace.TransPythonToSimulator, trace.TransBackendToCUDA}
	for p := 0; p < procs; p++ {
		pid := trace.ProcID(p)
		tr.Meta.Procs[pid] = trace.ProcInfo{Name: fmt.Sprintf("proc%d", p), Parent: -1}
		n := 50 + rng.Intn(400)
		// Half the processes get timestamps snapped to a coarse grid, so
		// exact start/end ties (and events closing in non-LIFO order at
		// the same instant) are common rather than vanishingly rare.
		grid := vclock.Time(1)
		if p%2 == 1 {
			grid = 1000
		}
		for i := 0; i < n; i++ {
			start := vclock.Time(rng.Intn(100_000)) / grid * grid
			width := vclock.Time(rng.Intn(5_000)) / grid * grid
			e := trace.Event{Proc: pid, Start: start, End: start + width}
			switch rng.Intn(10) {
			case 0, 1:
				e.Kind = trace.KindOp
				e.Name = ops[rng.Intn(len(ops))]
			case 2:
				e.Kind = trace.KindPhase
				e.Name = fmt.Sprintf("phase%d", rng.Intn(3))
			case 3:
				e.Kind = trace.KindTransition
				e.Name = labels[rng.Intn(len(labels))]
				e.End = e.Start
			case 4, 5, 6:
				e.Kind = trace.KindGPU
				e.Cat = gpuCats[rng.Intn(len(gpuCats))]
				e.Name = "kernel"
			default:
				e.Kind = trace.KindCPU
				e.Cat = cpuCats[rng.Intn(len(cpuCats))]
			}
			tr.Events = append(tr.Events, e)
		}
	}
	return tr
}

// TestRunMatchesSequential is the merge-path property test: for randomized
// multi-process traces, Run with any worker count must be byte-identical to
// the sequential per-process sweep.
func TestRunMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		want := dumpAll(overlap.ComputeTrace(tr))
		for workers := 1; workers <= 8; workers++ {
			got := dumpAll(Run(tr, Options{Workers: workers}))
			if got != want {
				t.Fatalf("seed %d workers %d: parallel result diverges from sequential\ngot:\n%s\nwant:\n%s",
					seed, workers, got, want)
			}
		}
	}
}

// TestRunEmptyTrace mirrors sequential behavior on a trace with no events.
func TestRunEmptyTrace(t *testing.T) {
	if got := Run(&trace.Trace{}, Options{Workers: 4}); len(got) != 0 {
		t.Fatalf("empty trace produced %d results", len(got))
	}
}
