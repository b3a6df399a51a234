package profiler

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// TestWriteToRoundTrip: the directory WriteTo writes reads back as the run's
// events and metadata; the reference is the same run recorded again, since
// the write spent the first.
func TestWriteToRoundTrip(t *testing.T) {
	record := func() *Profiler {
		p := New(Options{Workload: "persisted", Flags: trace.Full(), Seed: 2})
		toyWorkload(p, gpu.NewDevice(-1), 4)
		return p
	}
	dir := filepath.Join(t.TempDir(), "trace")
	if err := record().WriteTo(dir); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	want := record().MustTrace()
	if len(got.Events) != len(want.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(want.Events))
	}
	if got.Meta.Workload != "persisted" || !got.Meta.Config.CUPTI {
		t.Fatalf("metadata mismatch: %+v", got.Meta)
	}
}

// TestWriteToUnclosedSessionFails: a write refused for an unclosed session
// has read nothing, so it leaves the run usable once the session closes.
func TestWriteToUnclosedSessionFails(t *testing.T) {
	p := New(Options{Workload: "x", Seed: 1})
	s := p.NewProcess("open", -1, 0)
	if err := p.WriteTo(t.TempDir()); err == nil || errors.Is(err, ErrWritten) {
		t.Fatalf("WriteTo with an unclosed session: %v", err)
	}
	if err := p.WriteToSink(&chunkCounter{}); err == nil || errors.Is(err, ErrWritten) {
		t.Fatalf("WriteToSink with an unclosed session: %v", err)
	}
	s.Close()
	if tr, err := p.Trace(); err != nil || len(tr.Events) != 1 {
		t.Fatalf("Trace after the refused writes: %v", err)
	}
}

// chunkCounter is a Sink that counts the chunks it is handed and keeps
// nothing, so what a write allocates is the profiler's and the Writer's.
type chunkCounter struct{ chunks int }

func (c *chunkCounter) AppendChunk(int, []byte, *trace.ChunkIndex) error { c.chunks++; return nil }
func (c *chunkCounter) Seal(trace.Meta) error                            { return nil }

// TestWriteToRecyclesChunkBuffers pins what recording and writing a fresh
// run allocates once an earlier run's write has left its buffers in the
// stores: a fixed count per run — the Profiler and its default overhead
// model (3), its list of four sessions (3), and the metadata, the Writer
// and its channels (9) — and per session its Session, its clock and the
// clock's source (3), its overhead stream and that stream's source, its
// sort keys, and the ordering's channel and closure (9), plus its block
// list's doublings; per
// chunk its writeJob, the job's done channel, the *ChunkIndex, its process
// map and that map's first group. No block: each session borrows the ones
// the last run's write handed back. No event buffer and no frame: the
// sessions are gathered through one stack-sized stage, and the chunk
// buffers and the frame buffers come back from the Writer's recycled
// stores. No string table either: the v1 encoder's table never leaves the
// stack while it holds at most eight names, and these events use at most
// five. So the count is the same at 2 000 events as at 320 000, but for the
// block list's doublings, which grow with the log of its blocks.
func TestWriteToRecyclesChunkBuffers(t *testing.T) {
	const sessions, runFixed, perSession, perChunk = 4, 15, 9, 5
	names := []string{"proc0", "proc1", "proc2", "proc3"}
	eventNames := []string{"inference", "cudaLaunchKernel", "gemm", "python→backend", ""}
	for _, procs := range []int{1, 2} {
		for _, n := range []int{500, 20000, 80000} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%dx%d", procs, sessions, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				// record makes the same run every time, its events in start
				// order so that ordering them is cheap.
				record := func() *Profiler {
					p := New(Options{Workload: "recycle", Seed: 1})
					for _, name := range names {
						s := p.NewProcess(name, -1, 0)
						for i := range n {
							at := vclock.Time(i)
							s.Emit(trace.Event{Kind: trace.KindCPU, Cat: trace.CatBackend, Proc: s.proc, Start: at, End: at + vclock.Time(i%50), Name: eventNames[i%len(eventNames)]})
						}
						s.closed = true
					}
					return p
				}
				first, sink := record(), &chunkCounter{}
				blocks := len(first.sessions[0].events.Blocks())
				if err := first.WriteToSink(sink); err != nil {
					t.Fatal(err)
				}
				chunks := sink.chunks
				got := testing.AllocsPerRun(3, func() {
					if err := record().WriteToSink(sink); err != nil {
						t.Fatal(err)
					}
				})
				// Appending b blocks one by one allocates the list at
				// capacities 1, 2, 4, … up to the first power of two ≥ b.
				doublings := bits.Len(uint(blocks-1)) + 1
				if want := runFixed + (perSession+doublings)*sessions + perChunk*chunks; got != float64(want) {
					t.Errorf("recording and writing %d events in %d chunks: %.0f allocs, want %d", sessions*n, chunks, got, want)
				}
				// In bytes, the write alone of a run already ordered: the
				// run's and the chunks' small fixed costs only, a few KiB in
				// all — well under one byte per event once a session holds
				// more than 500, where a frame alone would cost over ten.
				// The least of three writes: one that holds more chunks in
				// flight than any before it, as scheduling on a loaded
				// machine may, takes the extra buffers fresh, and the stacks
				// keep them for the next.
				least := uint64(math.MaxUint64)
				for range 3 {
					p := record()
					sorted, _, err := p.sortedSessions()
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range sorted {
						s.sortedEvents()
					}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					if err := p.WriteToSink(sink); err != nil {
						t.Fatal(err)
					}
					runtime.ReadMemStats(&after)
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				if perEvent := float64(least) / float64(sessions*n); n > 500 && perEvent >= 1 {
					t.Errorf("writing %d events allocated %.1f B per event", sessions*n, perEvent)
				}
			})
		}
	}
}
