package analysis

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// writeTrace persists a trace to a fresh directory in the given event order
// with small chunks, so streaming tests exercise many chunk boundaries.
func writeTrace(t *testing.T, tr *trace.Trace, chunkBytes int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := trace.NewWriter(dir, chunkBytes)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.Append(tr.Events...)
	if err := w.Close(tr.Meta); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

func streamDir(t *testing.T, dir string, opts Options) (map[trace.ProcID]*overlap.Result, StreamStats) {
	t.Helper()
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	res, stats, err := RunStream(r, opts)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	return res, stats
}

// TestRunStreamMatchesRun is the tentpole property test on the engine level:
// for randomized multi-process traces chunked on disk — events written in
// adversarially random time order, so intervals cross chunk boundaries both
// ways — RunStream must be byte-identical to Run on the materialized trace
// for Workers 1..8, with and without a memory budget.
func TestRunStreamMatchesRun(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		dir := writeTrace(t, tr, 1<<10)
		loaded, err := trace.ReadDir(dir)
		if err != nil {
			t.Fatalf("seed %d: ReadDir: %v", seed, err)
		}
		want := dumpAll(Run(loaded, Options{Workers: 1}))
		for workers := 1; workers <= 8; workers++ {
			for _, budget := range []int64{0, 1 << 12} {
				got, _ := streamDir(t, dir, Options{Workers: workers, MaxResidentBytes: budget})
				if dumpAll(got) != want {
					t.Fatalf("seed %d workers %d budget %d: streaming result diverges from materialized Run",
						seed, workers, budget)
				}
			}
		}
	}
}

// streamingTrace builds the worst case for window completion: no phase
// annotations, so each process is one window spanning every chunk and only
// prefix eviction can bound residency. Events are sorted by start, as the
// profiler emits them.
func streamingTrace(rng *rand.Rand, n int) *trace.Trace {
	tr := &trace.Trace{Meta: trace.Meta{Workload: "streaming"}}
	cpuCats := []trace.Category{trace.CatPython, trace.CatSimulator, trace.CatBackend, trace.CatCUDA}
	var tcur vclock.Time
	for i := 0; i < n; i++ {
		tcur += vclock.Time(rng.Intn(500))
		e := trace.Event{Proc: trace.ProcID(rng.Intn(3)), Start: tcur, End: tcur + vclock.Time(rng.Intn(800))}
		switch rng.Intn(8) {
		case 0:
			e.Kind = trace.KindOp
			e.Name = "step"
		case 1:
			e.Kind = trace.KindTransition
			e.Name = trace.TransPythonToBackend
			e.End = e.Start
		case 2, 3:
			e.Kind = trace.KindGPU
			e.Cat = trace.CatGPUKernel
			e.Name = "kernel"
		default:
			e.Kind = trace.KindCPU
			e.Cat = cpuCats[rng.Intn(len(cpuCats))]
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// TestRunStreamBoundsResidency checks the MaxResidentBytes mechanism on a
// realistically ordered phase-less trace: the budget must force prefix
// evictions and keep peak residency far below the materialized trace,
// without changing the result.
func TestRunStreamBoundsResidency(t *testing.T) {
	tr := streamingTrace(rand.New(rand.NewSource(99)), 4000)
	dir := writeTrace(t, tr, 1<<10)
	loaded, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var totalBytes int64
	for _, e := range loaded.Events {
		totalBytes += int64(trace.EventBytes(e))
	}
	want := dumpAll(Run(loaded, Options{Workers: 1}))

	unbounded, freeStats := streamDir(t, dir, Options{Workers: 1})
	if dumpAll(unbounded) != want {
		t.Fatal("unbounded streaming diverges from materialized Run")
	}
	budget := totalBytes / 8
	bounded, stats := streamDir(t, dir, Options{Workers: 1, MaxResidentBytes: budget})
	if dumpAll(bounded) != want {
		t.Fatal("budgeted streaming diverges from materialized Run")
	}
	if stats.Evictions == 0 {
		t.Fatalf("budget %d forced no evictions (total %d bytes)", budget, totalBytes)
	}
	if stats.PeakResidentBytes >= freeStats.PeakResidentBytes {
		t.Fatalf("budgeted peak %d not below unbounded peak %d",
			stats.PeakResidentBytes, freeStats.PeakResidentBytes)
	}
	if stats.PeakResidentEvents >= len(loaded.Events) {
		t.Fatalf("budgeted peak %d events not below trace size %d",
			stats.PeakResidentEvents, len(loaded.Events))
	}
}

// TestRunStreamWithoutSidecars covers traces written before sidecar indexes
// existed: deleting every .rlsidx must only cost an extra planning decode,
// never change the result.
func TestRunStreamWithoutSidecars(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)))
	dir := writeTrace(t, tr, 1<<10)
	sidecars, err := filepath.Glob(filepath.Join(dir, "*.rlsidx"))
	if err != nil || len(sidecars) == 0 {
		t.Fatalf("expected sidecar files, got %v (err %v)", sidecars, err)
	}
	loaded, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	want := dumpAll(Run(loaded, Options{Workers: 1}))
	for _, path := range sidecars {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := streamDir(t, dir, Options{Workers: 4})
	if dumpAll(got) != want {
		t.Fatal("sidecar-less streaming diverges from materialized Run")
	}
}

// TestRunStreamCorruptChunk propagates a chunk-identifying error out of the
// streaming loop with the pool torn down cleanly.
func TestRunStreamCorruptChunk(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)))
	dir := writeTrace(t, tr, 1<<10)
	chunks, err := filepath.Glob(filepath.Join(dir, "*.rlstrace"))
	if err != nil || len(chunks) < 2 {
		t.Fatalf("want multiple chunks, got %v (err %v)", chunks, err)
	}
	victim := chunks[1]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Remove the sidecar too so the planner's fallback decode hits the
	// truncation (with the sidecar intact, the streaming loop hits it).
	if err := os.Remove(sidecarFor(victim)); err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	_, _, err = RunStream(r, Options{Workers: 4})
	var ce *trace.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *trace.ChunkError", err)
	}
	if ce.Chunk != filepath.Base(victim) {
		t.Fatalf("error names chunk %q, want %q", ce.Chunk, filepath.Base(victim))
	}
}

func sidecarFor(chunkPath string) string {
	return chunkPath[:len(chunkPath)-len(".rlstrace")] + ".rlsidx"
}

// TestRunStreamEmptyTrace mirrors Run on a trace with no events.
func TestRunStreamEmptyTrace(t *testing.T) {
	dir := writeTrace(t, &trace.Trace{Meta: trace.Meta{Workload: "empty"}}, 0)
	got, stats := streamDir(t, dir, Options{Workers: 4})
	if len(got) != 0 {
		t.Fatalf("empty trace produced %d results", len(got))
	}
	if stats.Chunks != 0 || stats.Events != 0 {
		t.Fatalf("empty trace reported stats %+v", stats)
	}
}

// TestHostileSidecarClaims rewrites every sidecar of a trace directory to
// claim 2^32 and then 2^60 events for each of its processes. The claims size
// the windows' buffers, so uncapped they panic Engine.Analyze (makeslice) or
// ask for hundreds of gigabytes. Capped at what each chunk file could
// encode, the run allocates no more than that cap above the honest run, and
// its result is the honest one.
func TestHostileSidecarClaims(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(12)))
	dir := writeTrace(t, tr, 1<<10)
	analyze := func() (string, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := NewEngine(WithWorkers(2)).Analyze(context.Background(), FromDir(dir))
		runtime.ReadMemStats(&after)
		if err != nil {
			var ce *trace.ChunkError
			if !errors.As(err, &ce) {
				t.Fatalf("Analyze: %v, want a result or a *trace.ChunkError", err)
			}
			return "", after.TotalAlloc - before.TotalAlloc
		}
		return dumpAll(rep.Results), after.TotalAlloc - before.TotalAlloc
	}
	want, honest := analyze()
	if want == "" {
		t.Fatal("the honest directory did not analyze")
	}

	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var indexes []trace.ChunkIndex
	var capEvents uint64
	for i := range r.NumChunks() {
		ix, err := r.Index(i)
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, *ix)
		capEvents += uint64(len(ix.Procs)) * uint64(ix.Bytes/minEventBytes)
	}
	bound := 2*honest + capEvents*uint64(unsafe.Sizeof(trace.Event{}))
	for _, claim := range []int{1 << 32, 1 << 60} {
		for i, ix := range indexes {
			hostile := ix
			hostile.Events = claim
			hostile.Procs = map[trace.ProcID]trace.ProcSpan{}
			for p, sp := range ix.Procs {
				sp.Events = claim
				hostile.Procs[p] = sp
			}
			// The legacy JSON sidecar encoding is still read.
			data, err := json.Marshal(&hostile)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(sidecarFor(filepath.Join(dir, r.ChunkName(i))), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, allocated := analyze()
		if got != "" && got != want {
			t.Fatalf("claim %d: the result differs from the honest sidecars'", claim)
		}
		if allocated > bound {
			t.Fatalf("claim %d: allocated %d bytes, more than the %d the chunk files bound", claim, allocated, bound)
		}
	}
}
