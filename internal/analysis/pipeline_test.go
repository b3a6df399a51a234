package analysis

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// heldJobs runs the pipeline over src with the test standing in for the
// worker pool and holding every closed window unswept until the chunk loop
// has ended, so the coordinator routes and cuts on while each buffer it
// handed over is still out. It returns the jobs in dispatch order, a copy of
// each job's events taken as it arrived, and the pipeline, whose sweep
// merges them.
func heldJobs(t *testing.T, src source, opts Options) ([]sweepJob, [][]trace.Event, *pipeline) {
	t.Helper()
	pl := &pipeline{ctx: context.Background(), src: src, stage: opts.Stage, procs: map[trace.ProcID]*procState{}}
	if err := pl.plan(nil); err != nil {
		t.Fatalf("plan: %v", err)
	}
	pl.jobs = make(chan sweepJob)
	var (
		jobs   []sweepJob
		copies [][]trace.Event
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for job := range pl.jobs {
			jobs = append(jobs, job)
			copies = append(copies, slices.Clone(job.w.events))
		}
	}()
	err := pl.stream(opts)
	close(pl.jobs)
	<-done
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return jobs, copies, pl
}

// sweepHeld sweeps held jobs in dispatch order and returns the results.
func sweepHeld(pl *pipeline, jobs []sweepJob) map[trace.ProcID]*overlap.Result {
	sw := overlap.GetSweeper()
	defer overlap.PutSweeper(sw)
	var res overlap.Result
	for _, job := range jobs {
		pl.sweep(sw, &res, job)
	}
	out := map[trace.ProcID]*overlap.Result{}
	for _, w := range pl.order {
		if w.acc != nil {
			out[w.proc] = w.acc
		}
	}
	return out
}

// TestPipelineCutsMatchSequential keeps cut coverage alive now that windows
// are cut by size: randomTrace's processes never reach splitEvents, so the
// Run/RunStream property tests alone would stop exercising cuts.
// splittingTrace — several × splitEvents events per process, enclosing
// layers and same-start bursts that make cuts refuse — goes through Run and
// through RunStream over v1 and v2 directories, every worker count and
// budget, and every result is compared to the sequential oracle. Each run
// must have cut (more sweeps than processes), and in a held run (heldJobs)
// the windows of a process must abut from MinTime to MaxTime.
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
				jobs, _, pl := heldJobs(t, src, Options{MaxResidentBytes: budget})
				if dumpAll(sweepHeld(pl, jobs)) != want {
					t.Fatalf("seed %d %s budget %d: held run diverges from the sequential sweep", seed, name, budget)
				}
				windows := map[*overlap.Result][][2]vclock.Time{}
				for _, job := range jobs {
					windows[job.acc] = append(windows[job.acc], [2]vclock.Time{job.w.lo, job.w.hi})
				}
				for _, w := range pl.order {
					p, ws := w.proc, windows[w.acc]
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
	// From memory the trace comes in runs of splitEvents events, each of
	// which fills the window to the split size exactly: each is cut as soon
	// as it lands, one sweep per run.
	a, err := NewEngine(WithWorkers(1)).Analyze(context.Background(), FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if runs := (len(tr.Events) + splitEvents - 1) / splitEvents; a.Stats.Shards != runs {
		t.Fatalf("%d events in %d runs of at most %d swept in %d windows, want one per run", len(tr.Events), runs, splitEvents, a.Stats.Shards)
	}
}

// TestBudgetedStreamStats pins the residency accounting of one-worker
// budgeted runs over traces that are cut many times: which windows close,
// how many the budget forces, and the peak estimate. Where a closed window's
// events travel to the sweep is an implementation choice; none of these
// counters may depend on it.
func TestBudgetedStreamStats(t *testing.T) {
	byStart := func(tr *trace.Trace) *trace.Trace {
		slices.SortStableFunc(tr.Events, func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) })
		return tr
	}
	marked, cal := markedTrace(rand.New(rand.NewSource(41)))
	marked.Events = append(marked.Events, steadyEvents(7, 0, 6*splitEvents)...)
	for _, c := range []struct {
		name   string
		tr     *trace.Trace
		budget int64
		cal    *calib.Calibration
		want   StreamStats
	}{
		{"splitting/8K", byStart(splittingTrace(rand.New(rand.NewSource(0)))), 8 << 10, nil,
			StreamStats{Chunks: 50, Events: 38489, ChunksDecoded: 50, Shards: 140, Evictions: 137, PeakResidentEvents: 6476, PeakResidentBytes: 107396}},
		{"splitting/256K", byStart(splittingTrace(rand.New(rand.NewSource(1)))), 256 << 10, nil,
			StreamStats{Chunks: 70, Events: 53278, ChunksDecoded: 70, Shards: 15, Evictions: 1, PeakResidentEvents: 14347, PeakResidentBytes: 284939}},
		{"streaming/16K", streamingTrace(rand.New(rand.NewSource(99)), 20000), 16 << 10, nil,
			StreamStats{Chunks: 25, Events: 20000, ChunksDecoded: 25, Shards: 50, Evictions: 47, PeakResidentEvents: 2494, PeakResidentBytes: 49176}},
		{"corrected/16K", byStart(marked), 16 << 10, cal,
			StreamStats{Chunks: 37, Events: 31029, ChunksDecoded: 37, Shards: 36, Evictions: 34, PeakResidentEvents: 2561, PeakResidentBytes: 49152}},
	} {
		dir := writeTrace(t, c.tr, 1<<14)
		opts := []EngineOption{WithWorkers(1), WithMaxResidentBytes(c.budget)}
		if c.cal != nil {
			opts = append(opts, WithCorrection(c.cal))
		}
		a, err := NewEngine(opts...).Analyze(context.Background(), FromDir(dir))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a.Stats != c.want {
			t.Errorf("%s: stats %+v, want %+v", c.name, a.Stats, c.want)
		}
	}
}

// pastCutTrace is two processes' timelines in chunks of one process each,
// alternating. Chunk k of a process covers [k·span, (k+1)·span) in start
// order, opens an interval that stays open for three more chunks and ends
// with an interval and a transition written ahead of their time: half a span
// past the cut the next chunk's watermark allows. Every chunk has the same
// composition, so a Writer whose chunk size is chunkBytes ends a file
// exactly where a chunk ends.
func pastCutTrace(chunks int) (tr *trace.Trace, chunkBytes int) {
	const span = 1000
	tr = &trace.Trace{}
	for k := 0; k < chunks; k++ {
		for p := trace.ProcID(0); p < 2; p++ {
			b := vclock.Time(k * span)
			from := len(tr.Events)
			add := func(e trace.Event) {
				e.Proc = p
				tr.Events = append(tr.Events, e)
			}
			add(cpuEvent(p, b, b+10))
			add(trace.Event{Kind: trace.KindCPU, Cat: trace.CatSimulator, Name: "long", Start: b + 1, End: b + 3*span})
			add(trace.Event{Kind: trace.KindOp, Name: "step", Start: b + 2, End: b + span - 2})
			for t := b + 20; t < b+span-40; t += 20 {
				add(trace.Event{Kind: trace.KindCPU, Cat: trace.CatBackend, Name: "fwd", Start: t, End: t + 8})
				add(trace.Event{Kind: trace.KindTransition, Name: trace.TransPythonToBackend, Start: t + 1, End: t + 1})
				add(trace.Event{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Name: "k", Start: t + 3, End: t + 30})
			}
			early := b + span + span/2
			add(cpuEvent(p, early, early+30))
			add(trace.Event{Kind: trace.KindTransition, Name: trace.TransPythonToBackend, Start: early + 5, End: early + 5})
			if k == 0 && p == 0 {
				chunkBytes = int(eventBytes(tr.Events[from:]))
			}
		}
	}
	return tr, chunkBytes
}

// TestHandoffCarriesEventsPastTheCut: a closed window travels to the sweep
// in the window's whole buffer, survivors and events past the cut included,
// which the windowed sweep must skip. On pastCutTrace every buffer but a
// process's last holds events that start at or after its window's end, and
// every run, held or through the Engine, matches the sequential sweep.
func TestHandoffCarriesEventsPastTheCut(t *testing.T) {
	const chunks = 8
	tr, chunkBytes := pastCutTrace(chunks)
	dir := writeTrace(t, tr, chunkBytes)
	want := dumpAll(overlap.ComputeTrace(tr)) // sorts tr: written first
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() != 2*chunks {
		t.Fatalf("%d chunk files, want %d", r.NumChunks(), 2*chunks)
	}
	jobs, _, pl := heldJobs(t, readerSource{r}, Options{MaxResidentBytes: 1})
	if len(jobs) != 2*chunks {
		t.Fatalf("%d windows closed, want one per chunk: %d", len(jobs), 2*chunks)
	}
	for i, job := range jobs {
		if job.w.hi == vclock.MaxTime {
			continue
		}
		past := 0
		for _, e := range job.w.events {
			if e.Start >= job.w.hi {
				past++
			}
		}
		if past == 0 || job.n+past > len(job.w.events) {
			t.Fatalf("window %d [%d, %d): %d of %d events past the cut, %d overlapping", i, job.w.lo, job.w.hi, past, len(job.w.events), job.n)
		}
	}
	if got := dumpAll(sweepHeld(pl, jobs)); got != want {
		t.Fatal("held run diverges from the sequential sweep")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, budget := range []int64{0, 1} {
			for label, d := range map[string]string{"v1": dir, "v2": convertTrace(t, dir)} {
				if got, _ := streamDir(t, d, Options{Workers: workers, MaxResidentBytes: budget}); dumpAll(got) != want {
					t.Fatalf("%s workers %d budget %d: diverges from the sequential sweep", label, workers, budget)
				}
			}
		}
	}
}

// TestHandoffBuffersDoNotAlias: a buffer handed to the sweep is the
// worker's alone. With every job held until the run ends, no buffer changes
// after it was handed over — not by routing into a window's survivors, not
// by the stage or a chunk decode into the spare — and no two jobs share an
// array. Runs with a real pool on a warm trace.EventBufs, whose recycled
// buffers the coordinator draws survivors buffers from while workers sweep,
// must match the sequential sweep; under the race detector they also show any
// write the coordinator makes to a buffer a worker reads.
func TestHandoffBuffersDoNotAlias(t *testing.T) {
	past, chunkBytes := pastCutTrace(6)
	marked, cal := markedTrace(rand.New(rand.NewSource(41)))
	marked.Events = append(marked.Events, steadyEvents(7, 0, 3*splitEvents)...)
	for _, c := range []struct {
		name       string
		tr         *trace.Trace
		chunkBytes int
		cal        *calib.Calibration
	}{
		{"past the cut", past, chunkBytes, nil},
		{"corrected", marked, 2048, cal},
	} {
		dir := writeTrace(t, c.tr, c.chunkBytes)
		// Both sort c.tr, so it is written first.
		var stage *calib.Corrector
		if c.cal != nil {
			stage = calib.NewCorrector(c.tr, c.cal)
		}
		want := dumpAll(Run(c.tr, Options{Workers: 1, Stage: stage}))
		for _, budget := range []int64{0, 1, 1 << 12} {
			r, err := trace.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			jobs, copies, pl := heldJobs(t, readerSource{r}, Options{Stage: stage, MaxResidentBytes: budget})
			arrays := map[*trace.Event]int{}
			for i, job := range jobs {
				if !slices.Equal(job.w.events, copies[i]) {
					t.Fatalf("%s budget %d: window %d's buffer changed after it was handed over", c.name, budget, i)
				}
				if cap(job.w.events) == 0 {
					continue
				}
				end := &job.w.events[:cap(job.w.events)][cap(job.w.events)-1] // one per array, whatever the offset
				if j, ok := arrays[end]; ok {
					t.Fatalf("%s budget %d: windows %d and %d were handed one array", c.name, budget, j, i)
				}
				arrays[end] = i
			}
			if got := dumpAll(sweepHeld(pl, jobs)); got != want {
				t.Fatalf("%s budget %d: held run diverges from Run", c.name, budget)
			}
		}
		for _, workers := range []int{2, 4} {
			for _, budget := range []int64{0, 1, 1 << 12} {
				r, err := trace.OpenDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := run(context.Background(), readerSource{r}, Options{Workers: workers, MaxResidentBytes: budget, Stage: stage})
				if err != nil {
					t.Fatal(err)
				}
				if dumpAll(got) != want {
					t.Fatalf("%s workers %d budget %d: diverges from Run", c.name, workers, budget)
				}
			}
		}
	}
}
