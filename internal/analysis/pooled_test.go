package analysis

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/calib"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// markedTrace is randomTrace plus overhead markers, so a corrected run's
// pre-pass has something to collect from every chunk.
func markedTrace(rng *rand.Rand) (*trace.Trace, *calib.Calibration) {
	tr := randomTrace(rng)
	for i, n := 0, len(tr.Events); i < n; i += 5 {
		e := tr.Events[i]
		tr.Events = append(tr.Events, trace.Event{
			Kind: trace.KindOverhead, Overhead: trace.OverheadAnnotation,
			Proc: e.Proc, Start: e.Start, End: e.Start,
		})
	}
	return tr, &calib.Calibration{Annotation: 90 * vclock.Nanosecond}
}

// chunkFiles lists a directory's chunk files in chunk order.
func chunkFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.rlstrace"))
	if err != nil || len(files) < 4 {
		t.Fatalf("want several chunks, got %v (err %v)", files, err)
	}
	return files
}

// TestPooledRunCancelAtEveryChunk cancels a pooled run — and a corrected
// run's pre-pass — after every chunk in turn: the run reports the context's
// error and exactly the chunks routed so far, whatever the workers were
// sweeping at the cancellation, and every worker goroutine is joined.
func TestPooledRunCancelAtEveryChunk(t *testing.T) {
	tr, cal := markedTrace(rand.New(rand.NewSource(17)))
	dir := writeTrace(t, tr, 512)
	n := len(chunkFiles(t, dir))
	baseline := runtime.NumGoroutine()
	for _, stage := range []string{StageAnalyze, StageCorrect} {
		for cutAt := 1; cutAt < n; cutAt++ {
			ctx, cancel := context.WithCancel(context.Background())
			opts := []EngineOption{WithWorkers(2), WithProgress(func(p Progress) {
				if p.Stage == stage && p.ChunksDone == cutAt {
					cancel()
				}
			})}
			if stage == StageCorrect {
				opts = append(opts, WithCorrection(cal))
			}
			rep, err := NewEngine(opts...).Analyze(ctx, FromDir(dir))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, cut %d/%d: err = %v, want context.Canceled", stage, cutAt, n, err)
			}
			if rep.Results != nil {
				t.Fatalf("%s, cut %d/%d: cancelled run returned results", stage, cutAt, n)
			}
			if rep.Stats.ChunksDecoded != cutAt {
				t.Fatalf("%s, cut %d/%d: %d chunks counted", stage, cutAt, n, rep.Stats.ChunksDecoded)
			}
		}
	}
	settleGoroutines(t, baseline)
}

// TestPooledRunCorruptChunkAtEveryIndex truncates each chunk in turn: a
// pooled run, and a corrected run's pre-pass, must report the error an inline
// run reports — the same *trace.ChunkError, naming that chunk, although
// workers may still be sweeping earlier windows — and join every worker.
func TestPooledRunCorruptChunkAtEveryIndex(t *testing.T) {
	tr, cal := markedTrace(rand.New(rand.NewSource(23)))
	dir := writeTrace(t, tr, 512)
	baseline := runtime.NumGoroutine()
	for _, victim := range chunkFiles(t, dir) {
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, corrected := range []bool{false, true} {
			var want string
			for _, workers := range []int{1, 2, 4} {
				opts := []EngineOption{WithWorkers(workers)}
				if corrected {
					opts = append(opts, WithCorrection(cal))
				}
				rep, err := NewEngine(opts...).Analyze(context.Background(), FromDir(dir))
				var ce *trace.ChunkError
				if !errors.As(err, &ce) || ce.Chunk != filepath.Base(victim) {
					t.Fatalf("%s corrected=%v workers %d: err = %v, want a ChunkError naming the chunk",
						filepath.Base(victim), corrected, workers, err)
				}
				if rep.Results != nil {
					t.Fatalf("%s workers %d: failed run returned results", filepath.Base(victim), workers)
				}
				if workers == 1 {
					want = err.Error()
				} else if err.Error() != want {
					t.Fatalf("%s corrected=%v workers %d: error %q, inline run reported %q",
						filepath.Base(victim), corrected, workers, err, want)
				}
			}
		}
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	settleGoroutines(t, baseline)
}

// TestPooledRunSkipsUnrequestedChunks: with a worker pool, as without one,
// a chunk holding no requested process is never decoded. Only the last chunk
// of the directory holds the requested process and every other chunk file is
// truncated behind its intact sidecar, so decoding any of them — in the
// analysis pass or in a corrected run's pre-pass — would fail the run.
func TestPooledRunSkipsUnrequestedChunks(t *testing.T) {
	tr := &trace.Trace{Events: steadyEvents(0, 0, 600)}
	target := steadyEvents(1, 0, 3)
	tr.Events = append(tr.Events, target...)
	dir := writeTrace(t, tr, 512)
	files := chunkFiles(t, dir)
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		ix, err := r.Index(i)
		if err != nil {
			t.Fatal(err)
		}
		last := i == len(files)-1
		if _, holds := ix.Procs[1]; holds != last {
			t.Fatalf("chunk %d of %d: holds the requested process = %v", i, len(files), holds)
		}
		if !last {
			if err := os.Truncate(f, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := dumpAll(Run(&trace.Trace{Events: target}, Options{Workers: 1}))
	for _, workers := range []int{1, 2} {
		got, stats := streamDir(t, dir, Options{Workers: workers, Procs: []trace.ProcID{1}})
		if stats.ChunksDecoded != 1 || stats.Events < len(target) {
			t.Fatalf("workers %d: decoded %d of %d chunks (%d events), want only the last",
				workers, stats.ChunksDecoded, stats.Chunks, stats.Events)
		}
		if dumpAll(got) != want {
			t.Fatalf("workers %d: result diverges from the requested process's own sweep", workers)
		}
		// The correction pre-pass lists its chunks by the same rule.
		cal := &calib.Calibration{Annotation: 90 * vclock.Nanosecond}
		eng := NewEngine(WithWorkers(workers), WithProcesses(1), WithCorrection(cal))
		if _, err := eng.Analyze(context.Background(), FromDir(dir)); err != nil {
			t.Fatalf("workers %d, corrected: %v", workers, err)
		}
	}
}
