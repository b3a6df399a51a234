package analysis

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// scribble overwrites every buffer of a scratch to its full capacity — which
// the race detector turns into a failure if any goroutine of the run that
// handed them back can still touch one — and checks that no two of them share
// memory, as two owners of one array would.
func scribble(t *testing.T, sc *freeList, what string) {
	t.Helper()
	seen := map[*trace.Event]bool{}
	for _, buf := range sc.bufs {
		buf = buf[:cap(buf)]
		if len(buf) == 0 {
			t.Fatalf("%s: an empty buffer was handed back", what)
		}
		if seen[&buf[0]] {
			t.Fatalf("%s: one buffer was handed back twice", what)
		}
		seen[&buf[0]] = true
		for i := range buf {
			buf[i] = trace.Event{Name: "scribbled"}
		}
	}
}

// TestHandBackOnCancelAndCorruptChunk: a run hands its event buffers back to
// the scratch on every exit path — completed, cancelled after any chunk, a
// corrupt chunk at any index — and only once every worker has ended: after
// each run the test writes over all of them, then runs again on the same
// scratch, and the results never change. A run returns at least the buffers
// it took, so a warm scratch does not shrink.
func TestHandBackOnCancelAndCorruptChunk(t *testing.T) {
	tr, _ := markedTrace(rand.New(rand.NewSource(41)))
	tr.Events = append(tr.Events, steadyEvents(7, 0, 3*splitEvents)...) // a process that is cut
	dir := writeTrace(t, tr, 2048)
	files := chunkFiles(t, dir)
	// A Reader per run: one keeps the last frame it loaded, and the test
	// rewrites chunk files.
	src := func() source {
		r, err := trace.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return readerSource{r}
	}
	want := dumpAll(Run(tr, Options{Workers: 1}))
	sc := &freeList{}
	complete := func(what string, opts Options) {
		t.Helper()
		held := len(sc.bufs)
		got, _, err := runOn(context.Background(), sc, src(), opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if dumpAll(got) != want {
			t.Fatalf("%s: a run over scribbled buffers changed the result", what)
		}
		if len(sc.bufs) < held || len(sc.bufs) == 0 {
			t.Fatalf("%s: the scratch went from %d buffers to %d", what, held, len(sc.bufs))
		}
		scribble(t, sc, what)
	}
	complete("cold", Options{Workers: 2})

	for _, opts := range []Options{{Workers: 1}, {Workers: 2}, {Workers: 4, MaxResidentBytes: 1 << 12}} {
		for cutAt := 1; cutAt < len(files); cutAt++ {
			ctx, cancel := context.WithCancel(context.Background())
			opts.Progress = func(p Progress) {
				if p.ChunksDone == cutAt {
					cancel()
				}
			}
			held := len(sc.bufs)
			_, _, err := runOn(ctx, sc, src(), opts)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers %d, cut %d: err = %v, want context.Canceled", opts.Workers, cutAt, err)
			}
			if len(sc.bufs) < held {
				t.Fatalf("workers %d, cut %d: the scratch went from %d buffers to %d", opts.Workers, cutAt, held, len(sc.bufs))
			}
			scribble(t, sc, "cancelled")
		}
		opts.Progress = nil
		complete("after the cancelled runs", opts)

		for _, victim := range files {
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			held := len(sc.bufs)
			_, _, err = runOn(context.Background(), sc, src(), opts)
			var ce *trace.ChunkError
			if !errors.As(err, &ce) {
				t.Fatalf("workers %d, %s truncated: err = %v, want a ChunkError", opts.Workers, victim, err)
			}
			if len(sc.bufs) < held {
				t.Fatalf("workers %d, %s truncated: the scratch went from %d buffers to %d", opts.Workers, victim, held, len(sc.bufs))
			}
			scribble(t, sc, "corrupt chunk")
			if err := os.WriteFile(victim, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		complete("after the corrupt chunks", opts)
	}
}

// TestBufferBestFit: the free list hands out the smallest buffer with room,
// the largest when none has, and nothing once it is empty.
func TestBufferBestFit(t *testing.T) {
	f := &freeList{}
	for _, c := range []int{64, 8, 32, 16} {
		f.put(make([]trace.Event, 0, c))
	}
	for _, c := range []struct{ n, want int }{{10, 16}, {16, 32}, {100, 64}, {0, 8}, {1, 0}} {
		if got := cap(f.take(c.n)); got != c.want {
			t.Errorf("take(%d) has capacity %d, want %d", c.n, got, c.want)
		}
	}
}

// TestScratchSettlesAndOutlivesGC: after a few runs over one directory the
// pooled scratch stops changing — the same arrays come back, none replaced,
// none added — and garbage collections between the runs take nothing from it,
// so a warm run's event buffers cost no allocation whenever the collector
// ran. One worker: its order of requests is fixed.
func TestScratchSettlesAndOutlivesGC(t *testing.T) {
	tr, _ := markedTrace(rand.New(rand.NewSource(41)))
	tr.Events = append(tr.Events, steadyEvents(7, 0, 3*splitEvents)...)
	r, err := trace.OpenDir(writeTrace(t, tr, 1<<14))
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() {
		t.Helper()
		if _, _, err := run(context.Background(), readerSource{r}, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	arrays := func() map[*trace.Event]int {
		sc := getScratch()
		defer putScratch(sc)
		m := map[*trace.Event]int{}
		for _, buf := range sc.bufs {
			m[&buf[:1][0]] = cap(buf)
		}
		return m
	}
	for i := 0; i < 4; i++ {
		runOnce()
	}
	want := arrays()
	if len(want) == 0 {
		t.Fatal("four runs left no buffer in the pool")
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC() // the second would empty a sync.Pool
		runOnce()
		if got := arrays(); !maps.Equal(got, want) {
			t.Fatalf("run %d after settling: the scratch holds %v, held %v", i, got, want)
		}
	}
}

// TestPutScratchBounds: a scratch is trimmed to maxScratchEvents of capacity,
// largest buffers first, and no more than scratches.Max are kept.
func TestPutScratchBounds(t *testing.T) {
	var held []*freeList
	for i := 0; i <= scratches.Max; i++ {
		held = append(held, getScratch())
	}
	big := &freeList{bufs: [][]trace.Event{make([]trace.Event, 0, 8), make([]trace.Event, 0, 16), make([]trace.Event, 0, maxScratchEvents)}}
	putScratch(big)
	if len(big.bufs) != 2 || cap(big.bufs[1]) != 16 {
		t.Errorf("a scratch over the bound kept %d buffers, want the two small ones", len(big.bufs))
	}
	if getScratch() != big {
		t.Error("the scratch put last is not the one handed out next")
	}
	for _, sc := range held {
		putScratch(sc)
	}
	n := 0
	for _, ok := scratches.Get(); ok; _, ok = scratches.Get() {
		n++
	}
	if n != scratches.Max {
		t.Errorf("%d idle scratches, want %d", n, scratches.Max)
	}
}

// TestIncrementalEpochAllocs pins what a steady-state epoch — Apply of one
// 512-event chunk, then Results — costs an Incremental seeded from a released
// one: the pool hands it the scratch the same stream left, so every window
// that grows and every cut finds its buffer there, and every cut its window,
// result maps and all, in the process state the stream left.
// What is left is per epoch (the merged result and the read's map), the same
// in an epoch that cuts as in one that does not, and no event buffer: an
// epoch allocates less than its events would occupy. No sync.Pool is on the
// path — the scratch and the Sweeper come off bounded pools that neither a
// collection nor a change of P count empties — so the count holds on any
// number of Ps and under the race detector.
func TestIncrementalEpochAllocs(t *testing.T) {
	// The pool holds only what this test releases.
	for _, ok := scratches.Get(); ok; _, ok = scratches.Get() {
	}

	const per, warm, runs = 512, 16, 20
	all := steadyEvents(0, 0, (warm+runs+1)*per)
	var chunks [][]trace.Event
	for len(chunks) < warm+runs+1 {
		chunks = append(chunks, all[:per])
		all = all[per:]
	}
	var (
		inc *Incremental
		seq int
	)
	epoch := func() {
		inc.Apply(chunks[seq : seq+1])
		inc.Results(nil)
		seq++
	}
	// Two streams released first settle the scratch: the first allocates
	// what it needs, the second meets the buffers the same requests took.
	for i := 0; i < 2; i++ {
		inc, seq = NewIncremental(), 0
		for seq < len(chunks) {
			epoch()
		}
		inc.Release()
	}
	inc, seq = NewIncremental(), 0
	for seq < warm {
		epoch()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, epoch)
	runtime.ReadMemStats(&after)
	perEpoch := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if limit := uint64(per * 40); perEpoch >= limit {
		t.Errorf("a steady-state epoch allocates %d B, want under %d: an event buffer is among them", perEpoch, limit)
	}
	if want := 7.0; allocs != want {
		t.Errorf("a steady-state epoch allocates %.0f times, want %.0f", allocs, want)
	}
	if st := inc.Stats(); st.Windows < 4 {
		t.Fatalf("%d windows: the stream never split enough to exercise the scratch", st.Windows)
	}
	inc.Release()
}

// TestAnalyzeWarmAllocs pins what a warm Engine.Analyze allocates: the second
// and later one-worker runs over one directory, through one Reader — whose
// sidecar indexes and interned names are cached — and the pooled run scratch,
// so no event buffer is among them. What is left is per run (the pipeline, the
// plan, the result maps), per chunk (os.Open's three) or per process and per
// window (accumulators, map growth), none of it per event; a corrected run
// adds its marker logs, in blocks that double up to a cap, and one index per
// process at its exact length. The trace has several
// processes, one of them cut many times, in a dozen chunks.
func TestAnalyzeWarmAllocs(t *testing.T) {
	tr, cal := markedTrace(rand.New(rand.NewSource(41)))
	tr.Events = append(tr.Events, steadyEvents(7, 0, 6*splitEvents)...)
	dir := writeTrace(t, tr, 1<<16)
	for _, c := range []struct {
		name string
		opts []EngineOption
		want float64
	}{
		{"plain", []EngineOption{WithWorkers(1)}, 80},
		{"corrected", []EngineOption{WithWorkers(1), WithCorrection(cal)}, 127},
	} {
		eng := NewEngine(c.opts...)
		r, err := trace.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := FromReader(r)
		run := func() {
			if _, err := eng.Analyze(context.Background(), src); err != nil {
				t.Fatal(err)
			}
		}
		run() // the cold run: fills the Reader's caches and the scratch
		if got := testing.AllocsPerRun(10, run); got != c.want {
			t.Errorf("%s: a warm Analyze allocates %.0f times, want %.0f", c.name, got, c.want)
		}
	}
}
