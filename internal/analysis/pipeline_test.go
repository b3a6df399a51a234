package analysis

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// recordWindows runs the pipeline over src with the test standing in for
// the worker pool, so every closed window's [lo, hi) is seen on its way to
// the sweep. It returns the results and, per process, the windows in
// dispatch order.
func recordWindows(t *testing.T, src source, opts Options) (map[trace.ProcID]*overlap.Result, map[trace.ProcID][][2]vclock.Time) {
	t.Helper()
	pl := &pipeline{ctx: context.Background(), src: src, windows: map[trace.ProcID]*procWindow{}}
	if err := pl.plan(nil); err != nil {
		t.Fatalf("plan: %v", err)
	}
	pl.jobs = make(chan sweepJob)
	byAcc := map[*overlap.Result][][2]vclock.Time{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sw := overlap.GetSweeper()
		defer overlap.PutSweeper(sw)
		var res overlap.Result
		for job := range pl.jobs {
			byAcc[job.acc] = append(byAcc[job.acc], [2]vclock.Time{job.lo, job.hi})
			pl.sweep(sw, &res, job)
		}
	}()
	err := pl.stream(opts)
	close(pl.jobs)
	<-done
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	out := map[trace.ProcID]*overlap.Result{}
	windows := map[trace.ProcID][][2]vclock.Time{}
	for _, w := range pl.order {
		out[w.proc], windows[w.proc] = w.acc, byAcc[w.acc]
	}
	return out, windows
}

// TestPipelineCutsMatchSequential keeps cut coverage alive now that windows
// are cut by size: randomTrace's processes never reach splitEvents, so the
// Run/RunStream property tests alone would stop exercising cuts.
// splittingTrace — several × splitEvents events per process, enclosing
// layers and same-start bursts that make cuts refuse — goes through Run and
// through RunStream over v1 and v2 directories, every worker count and
// budget, and every result is compared to the sequential oracle. Each run
// must have cut (more sweeps than processes), and the windows of a process
// must abut from MinTime to MaxTime.
func TestPipelineCutsMatchSequential(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		tr := splittingTrace(rand.New(rand.NewSource(seed)))
		want := dumpAll(overlap.ComputeTrace(tr))
		nprocs := len(tr.ProcIDs())
		// On disk in start order, as a profiler emits events: written in
		// generation order (starts shuffled) no watermark would advance
		// before a process's last chunk and nothing could be cut.
		byStart := &trace.Trace{Events: slices.Clone(tr.Events)}
		slices.SortStableFunc(byStart.Events, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
		v1dir := writeTrace(t, byStart, 1<<15)
		dirs := map[string]string{"v1": v1dir, "v2": convertTrace(t, v1dir)}

		for workers := 1; workers <= 4; workers++ {
			for _, budget := range []int64{0, 1, 8 << 10} {
				opts := Options{Workers: workers, MaxResidentBytes: budget}
				if got := dumpAll(Run(tr, opts)); got != want {
					t.Fatalf("seed %d workers %d budget %d: Run diverges from the sequential sweep", seed, workers, budget)
				}
				for label, dir := range dirs {
					got, stats := streamDir(t, dir, opts)
					if dumpAll(got) != want {
						t.Fatalf("seed %d %s workers %d budget %d: RunStream diverges from the sequential sweep", seed, label, workers, budget)
					}
					if stats.Shards <= nprocs {
						t.Fatalf("seed %d %s workers %d budget %d: %d sweeps for %d processes — no window was cut",
							seed, label, workers, budget, stats.Shards, nprocs)
					}
					if budget > 0 && stats.Evictions == 0 {
						t.Fatalf("seed %d %s workers %d budget %d: no cut was forced by the budget", seed, label, workers, budget)
					}
				}
			}
		}

		r, err := trace.OpenDir(v1dir)
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]source{"memory": newMemSource(tr), "reader": &readerSource{r: r}} {
			for _, budget := range []int64{0, 8 << 10} {
				got, windows := recordWindows(t, src, Options{MaxResidentBytes: budget})
				if dumpAll(got) != want {
					t.Fatalf("seed %d %s budget %d: recorded run diverges from the sequential sweep", seed, name, budget)
				}
				for p, ws := range windows {
					if len(ws) < 2 {
						t.Fatalf("seed %d %s budget %d: proc %d was never cut", seed, name, budget, p)
					}
					if ws[0][0] != vclock.MinTime || ws[len(ws)-1][1] != vclock.MaxTime {
						t.Fatalf("seed %d %s budget %d: proc %d windows span [%d, %d), not the whole timeline",
							seed, name, budget, p, ws[0][0], ws[len(ws)-1][1])
					}
					for i := 1; i < len(ws); i++ {
						if ws[i-1][1] != ws[i][0] {
							t.Fatalf("seed %d %s budget %d: proc %d windows [..%d) and [%d..) do not abut",
								seed, name, budget, p, ws[i-1][1], ws[i][0])
						}
					}
				}
			}
		}
	}
}

// TestRunStreamCutsWithoutBudget is the residency regression test for the
// phase-window planner this pipeline replaced: a phase-less single-process
// trace used to be one window, buffered whole before its first sweep.
// Unbudgeted, it must now be swept in several windows with well under the
// trace resident at once.
func TestRunStreamCutsWithoutBudget(t *testing.T) {
	tr := &trace.Trace{Events: steadyEvents(0, 0, 8*splitEvents)}
	dir := writeTrace(t, tr, 1<<16)
	got, stats := streamDir(t, dir, Options{Workers: 1})
	if dumpAll(got) != dumpAll(overlap.ComputeTrace(tr)) {
		t.Fatal("streamed result diverges from the sequential sweep")
	}
	if stats.Chunks < 4 {
		t.Fatalf("want at least 4 chunks, got %d", stats.Chunks)
	}
	if stats.Evictions != 0 {
		t.Fatalf("unbudgeted run reported %d evictions", stats.Evictions)
	}
	if stats.Shards < 4 {
		t.Fatalf("%d events swept in %d windows, want at least 4", len(tr.Events), stats.Shards)
	}
	if limit := len(tr.Events) * 6 / 10; stats.PeakResidentEvents >= limit {
		t.Fatalf("peak resident %d events of %d, want under %d", stats.PeakResidentEvents, len(tr.Events), limit)
	}
}
