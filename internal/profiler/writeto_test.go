package profiler

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
)

func TestWriteToRoundTrip(t *testing.T) {
	p := New(Options{Workload: "persisted", Flags: trace.Full(), Seed: 2})
	toyWorkload(p, gpu.NewDevice(-1), 4)
	dir := filepath.Join(t.TempDir(), "trace")
	if err := p.WriteTo(dir); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	want := p.MustTrace()
	if len(got.Events) != len(want.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(want.Events))
	}
	if got.Meta.Workload != "persisted" || !got.Meta.Config.CUPTI {
		t.Fatalf("metadata mismatch: %+v", got.Meta)
	}
}

func TestWriteToUnclosedSessionFails(t *testing.T) {
	p := New(Options{Workload: "x", Seed: 1})
	p.NewProcess("open", -1, 0)
	if err := p.WriteTo(t.TempDir()); err == nil {
		t.Fatal("WriteTo succeeded with an unclosed session")
	}
}

// chunkCounter is a Sink that counts the chunks it is handed and keeps
// nothing, so what a write allocates is the profiler's and the Writer's.
type chunkCounter struct{ chunks int }

func (c *chunkCounter) AppendChunk(int, []byte, *trace.ChunkIndex) error { c.chunks++; return nil }
func (c *chunkCounter) Seal(trace.Meta) error                            { return nil }

// TestWriteToRecyclesChunkBuffers pins what writing a closed profiler again
// allocates: a fixed count for the run — its metadata, the Writer and its
// channels (the sessions are ordered already, and waiting costs nothing) —
// and per chunk its writeJob, the job's done channel, the *ChunkIndex, its
// process map and that map's first group. No event buffer and no frame: the
// sessions are gathered through one stack-sized stage, and the chunk buffers
// and the frame buffers come back from the Writer's recycled stores. No
// string table either: the v1 encoder's table never leaves the stack while
// it holds at most eight names, and these events use at most five. So the count is
// the same at 2 000 events as at 320 000.
func TestWriteToRecyclesChunkBuffers(t *testing.T) {
	const sessions, runFixed, perChunk = 4, 9, 5
	for _, procs := range []int{1, 2} {
		for _, n := range []int{500, 20000, 80000} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%dx%d", procs, sessions, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				p := New(Options{Workload: "recycle", Seed: 1})
				rng := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < sessions; i++ {
					s := p.NewProcess(fmt.Sprintf("proc%d", i), -1, 0)
					emitRandom(s, rng, n)
					s.closed = true
				}
				if err := p.WriteTo(filepath.Join(t.TempDir(), "first")); err != nil {
					t.Fatal(err)
				}
				sink := &chunkCounter{}
				got := testing.AllocsPerRun(10, func() {
					if err := p.WriteToSink(sink); err != nil {
						t.Fatal(err)
					}
				})
				chunks := sink.chunks / 11 // AllocsPerRun warms up with one extra call
				if want := runFixed + perChunk*chunks; got != float64(want) {
					t.Errorf("writing %d events in %d chunks again: %.0f allocs, want %d", sessions*n, chunks, got, want)
				}
				// In bytes: the run's and the chunks' small fixed costs only,
				// a few KiB in all — well under one byte per event once a
				// session holds more than 500, where a frame alone would
				// cost over ten. The least of three rewrites: one that holds
				// more chunks in flight than any before it, as scheduling on
				// a loaded machine may, takes the extra buffers fresh, and
				// the stacks keep them for the next.
				least := uint64(math.MaxUint64)
				for range 3 {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					if err := p.WriteToSink(sink); err != nil {
						t.Fatal(err)
					}
					runtime.ReadMemStats(&after)
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				if perEvent := float64(least) / float64(sessions*n); n > 500 && perEvent >= 1 {
					t.Errorf("writing %d events again allocated %.1f B per event", sessions*n, perEvent)
				}
			})
		}
	}
}
