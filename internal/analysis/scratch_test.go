package analysis

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// idleBufs empties trace.EventBufs and returns what it held, largest first;
// putBack hands them back, leaving the store as it was.
func idleBufs() (bufs [][]trace.Event) {
	for buf := trace.EventBufs.Get(math.MaxInt, 0); buf != nil; buf = trace.EventBufs.Get(math.MaxInt, 0) {
		bufs = append(bufs, buf)
	}
	return bufs
}

func putBack(bufs [][]trace.Event) {
	for _, buf := range bufs {
		trace.EventBufs.Put(buf)
	}
}

// scribble overwrites every idle buffer of trace.EventBufs to its full
// capacity — which the race detector turns into a failure if any goroutine
// of the run that handed them back can still touch one — and checks that no
// two of them share memory, as two owners of one array would. It returns
// how many are idle.
func scribble(t *testing.T, what string) int {
	t.Helper()
	bufs := idleBufs()
	defer putBack(bufs)
	seen := map[*trace.Event]bool{}
	for _, buf := range bufs {
		buf = buf[:cap(buf)]
		if seen[&buf[0]] {
			t.Fatalf("%s: one buffer was handed back twice", what)
		}
		seen[&buf[0]] = true
		for i := range buf {
			buf[i] = trace.Event{Name: "scribbled"}
		}
	}
	return len(bufs)
}

// TestHandBackOnCancelAndCorruptChunk: a run hands its event buffers back to
// trace.EventBufs on every exit path — completed, cancelled after any chunk,
// a corrupt chunk at any index — and only once every worker has ended: after
// each run the test writes over every idle buffer, then runs again drawing on
// them, and the results never change. A run returns at least the buffers it
// took, so a warm store does not shrink.
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
	idle := scribble(t, "before")
	complete := func(what string, opts Options) {
		t.Helper()
		got, _, err := run(context.Background(), src(), opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if dumpAll(got) != want {
			t.Fatalf("%s: a run over scribbled buffers changed the result", what)
		}
		held := idle
		if idle = scribble(t, what); idle < held || idle == 0 {
			t.Fatalf("%s: the store went from %d buffers to %d", what, held, idle)
		}
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
			_, _, err := run(ctx, src(), opts)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers %d, cut %d: err = %v, want context.Canceled", opts.Workers, cutAt, err)
			}
			held := idle
			if idle = scribble(t, "cancelled"); idle < held {
				t.Fatalf("workers %d, cut %d: the store went from %d buffers to %d", opts.Workers, cutAt, held, idle)
			}
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
			_, _, err = run(context.Background(), src(), opts)
			var ce *trace.ChunkError
			if !errors.As(err, &ce) {
				t.Fatalf("workers %d, %s truncated: err = %v, want a ChunkError", opts.Workers, victim, err)
			}
			held := idle
			if idle = scribble(t, "corrupt chunk"); idle < held {
				t.Fatalf("workers %d, %s truncated: the store went from %d buffers to %d", opts.Workers, victim, held, idle)
			}
			if err := os.WriteFile(victim, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		complete("after the corrupt chunks", opts)
	}
}

// TestScratchSettlesAndOutlivesGC: after a few runs over one directory the
// idle buffers of trace.EventBufs stop changing — the same arrays come back,
// none replaced, none added — and garbage collections between the runs take
// nothing from them, so a warm run's event buffers cost no allocation
// whenever the collector ran. One worker: its order of requests is fixed.
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
		bufs := idleBufs()
		defer putBack(bufs)
		m := map[*trace.Event]int{}
		for _, buf := range bufs {
			m[&buf[:1][0]] = cap(buf)
		}
		return m
	}
	for i := 0; i < 4; i++ {
		runOnce()
	}
	want := arrays()
	if len(want) == 0 {
		t.Fatal("four runs left no buffer in the store")
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC() // the second would empty a sync.Pool
		runOnce()
		if got := arrays(); !maps.Equal(got, want) {
			t.Fatalf("run %d after settling: the store holds %v, held %v", i, got, want)
		}
	}
}

// TestIncrementalEpochAllocs pins what a steady-state epoch — Apply of one
// 512-event chunk, then Results — costs once trace.EventBufs holds the
// buffers the same stream left when it was released: every window that grows
// and every cut finds its buffer there, and no epoch allocates an event
// buffer — an epoch allocates less than its events would occupy. An epoch
// that does not cut allocates 7 times: the merged result and the read's map.
// One that cuts the tail adds 6: the closed window, its kept result and that
// result's two maps, each a header and a group. Epochs that cut and epochs
// that do not are counted apart, each as the floored average of its kind,
// so both counts are exact and a stray allocation elsewhere in the process
// moves neither; a cut that grows the process's list of closed windows, one
// in every doubling, adds one more, which the floor absorbs. No sync.Pool is
// on the path — the buffers and the Sweeper come off bounded stores that
// neither a collection nor a change of P count empties — so the counts hold
// on any number of Ps and under the race detector.
func TestIncrementalEpochAllocs(t *testing.T) {
	idleBufs() // the store holds only what this test releases
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
	// Two streams released first settle the store: the first allocates
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
	// One P, and one epoch first, as testing.AllocsPerRun measures.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	epoch()
	var before, after runtime.MemStats
	var bytes uint64
	var allocs, epochs [2]uint64 // by whether the epoch cut
	for range runs {
		windows := inc.stats.Windows
		runtime.ReadMemStats(&before)
		epoch()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		cut := min(inc.stats.Windows-windows, 1)
		allocs[cut] += after.Mallocs - before.Mallocs
		epochs[cut]++
	}
	if perEpoch, limit := bytes/runs, uint64(per*40); perEpoch >= limit {
		t.Errorf("a steady-state epoch allocates %d B, want under %d: an event buffer is among them", perEpoch, limit)
	}
	if epochs[1] < 4 {
		t.Fatalf("%d of %d epochs cut: the stream never split enough to exercise the scratch", epochs[1], runs)
	}
	if got, want := allocs[0]/epochs[0], uint64(7); got != want {
		t.Errorf("a steady-state epoch allocates %d times, want %d", got, want)
	}
	if got, want := allocs[1]/epochs[1]-7, uint64(6); got != want {
		t.Errorf("a steady-state cut adds %d allocations to its epoch, want %d", got, want)
	}
	inc.Release()
}

// TestPipelineKeepsTooSmallChunkBuffer: the batch pipeline's decoder
// borrows each chunk's buffer with room for the events the chunk states, so
// an idle buffer too small for every chunk is still idle after the run.
func TestPipelineKeepsTooSmallChunkBuffer(t *testing.T) {
	dir := writeTrace(t, &trace.Trace{Events: steadyEvents(0, 0, 4000)}, 1<<14)
	held := idleBufs()
	defer func() { idleBufs(); putBack(held) }()
	small := make([]trace.Event, 0, 64)
	trace.EventBufs.Put(small)
	streamDir(t, dir, Options{Workers: 1})
	idle := idleBufs()
	for _, buf := range idle {
		if &buf[:1][0] == &small[:1][0] {
			return
		}
	}
	t.Fatalf("a run left %d buffers idle, not the 64-event one", len(idle))
}

// TestIncrementalReleaseHandsBackEveryBuffer: Release hands the buffer of
// every window of every process — each closed window and the tail — back to
// trace.EventBufs.
func TestIncrementalReleaseHandsBackEveryBuffer(t *testing.T) {
	idleBufs()
	inc := NewIncremental()
	inc.Apply([][]trace.Event{steadyEvents(0, 0, 3*splitEvents), steadyEvents(1, 0, splitEvents/4)})
	inc.Results(nil)
	held := map[*trace.Event]bool{}
	for _, p := range inc.procs {
		for i := 0; i <= len(p.closed); i++ {
			held[&p.at(i).events[:1][0]] = true
		}
	}
	if len(held) < 4 {
		t.Fatalf("%d windows: the stream never split", len(held))
	}
	inc.Release()
	for _, buf := range idleBufs() {
		delete(held, &buf[:1][0])
	}
	if len(held) != 0 {
		t.Fatalf("Release kept %d window buffers out of trace.EventBufs", len(held))
	}
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
