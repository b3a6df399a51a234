package profiler

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// emptyEventBufs drops every idle buffer in trace.EventBufs, so that what a
// test's sessions borrow is what that test's writes handed back, not what
// earlier tests left.
func emptyEventBufs() {
	for trace.EventBufs.Get(math.MaxInt, 0) != nil {
	}
}

// blockArrays is the first slot of each of p's sessions' blocks, which names
// the block's array however it is resliced.
func blockArrays(p *Profiler) map[*trace.Event]bool {
	arrays := map[*trace.Event]bool{}
	for _, s := range p.sessions {
		for _, b := range s.events.Blocks() {
			arrays[&b[:1][0]] = true
		}
	}
	return arrays
}

// TestReleasedBlocksDoNotAlias: a Trace taken before a write, and the
// directory the write made, stay what they were after the write's blocks
// are borrowed, filled and written again by a second run with other names
// and other times; and every idle buffer the writes left in
// trace.EventBufs is cleared over its whole capacity, so it holds no name
// alive.
func TestReleasedBlocksDoNotAlias(t *testing.T) {
	emptyEventBufs()
	first := New(Options{Workload: "first", Flags: trace.Full(), Seed: 3})
	dev := gpu.NewDevice(-1)
	toyWorkload(first, dev, 300)
	cudaHeavyWorkload(first, dev, 60)
	kept := first.MustTrace()
	want := *kept
	want.Events = slices.Clone(kept.Events)
	dir := filepath.Join(t.TempDir(), "first")
	arrays := blockArrays(first)
	if err := first.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	digest, err := trace.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}

	second := New(Options{Workload: "second", Seed: 4})
	for _, name := range []string{"stale?", "overwritten"} {
		s := second.NewProcess(name, -1, vclock.Time(1<<40))
		for i := range 20000 {
			at := vclock.Time(1<<40 + i)
			s.Emit(trace.Event{Kind: trace.KindCPU, Cat: trace.CatSimulator, Proc: s.proc, Start: at, End: at + 7, Name: name})
		}
		s.Close()
	}
	borrowed := 0
	for a := range blockArrays(second) {
		if arrays[a] {
			borrowed++
		}
	}
	if borrowed < len(arrays) {
		t.Fatalf("the second run borrowed %d of the first's %d blocks, want all", borrowed, len(arrays))
	}
	if err := second.WriteTo(filepath.Join(t.TempDir(), "second")); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(*kept, want) {
		t.Error("a Trace taken before the write changed once its blocks were written again")
	}
	if got, err := trace.DirDigest(dir); err != nil || got != digest {
		t.Errorf("the first run's directory digests %s (%v) after the second's write, %s before", got, err, digest)
	}
	for buf := trace.EventBufs.Get(math.MaxInt, 0); buf != nil; buf = trace.EventBufs.Get(math.MaxInt, 0) {
		if slices.ContainsFunc(buf[:cap(buf)], func(e trace.Event) bool { return e != trace.Event{} }) {
			t.Fatalf("an idle event buffer of capacity %d holds a written event", cap(buf))
		}
	}
}

// TestWrittenProfilerIsSpent: once a write has handed the run's blocks back,
// Trace, WriteTo and WriteToSink return ErrWritten, whichever wrote it.
func TestWrittenProfilerIsSpent(t *testing.T) {
	for _, write := range []func(*Profiler) error{
		func(p *Profiler) error { return p.WriteTo(t.TempDir()) },
		func(p *Profiler) error { return p.WriteToSink(&chunkCounter{}) },
	} {
		p := New(Options{Workload: "spent", Seed: 1})
		toyWorkload(p, gpu.NewDevice(-1), 3)
		if err := write(p); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Trace(); !errors.Is(err, ErrWritten) {
			t.Errorf("Trace after a write: %v, want ErrWritten", err)
		}
		if err := p.WriteTo(t.TempDir()); !errors.Is(err, ErrWritten) {
			t.Errorf("WriteTo after a write: %v, want ErrWritten", err)
		}
		if err := p.WriteToSink(&chunkCounter{}); !errors.Is(err, ErrWritten) {
			t.Errorf("WriteToSink after a write: %v, want ErrWritten", err)
		}
	}
}

// TestReleasedTraceReturnsBlocks: a run that is only traced, never written,
// ends with Release the way a written one ends. Every block it recorded
// into lands in trace.EventBufs, cleared over its whole capacity, and
// Trace, WriteTo, WriteToSink and Release then return ErrWritten; the Trace
// taken before stays what it was. A Release while a session is open
// releases nothing and leaves the run readable.
func TestReleasedTraceReturnsBlocks(t *testing.T) {
	emptyEventBufs()
	p := New(Options{Workload: "traced", Flags: trace.Full(), Seed: 5})
	toyWorkload(p, gpu.NewDevice(-1), 200)
	open := p.NewProcess("open", -1, 0)
	if err := p.Release(); err == nil || errors.Is(err, ErrWritten) {
		t.Fatalf("Release with a session open: %v, want the unclosed-session error", err)
	}
	open.Close()
	kept := p.MustTrace()
	want := *kept
	want.Events = slices.Clone(kept.Events)
	arrays := blockArrays(p)
	if err := p.Release(); err != nil {
		t.Fatal(err)
	}
	idle := 0
	for buf := trace.EventBufs.Get(math.MaxInt, 0); buf != nil; buf = trace.EventBufs.Get(math.MaxInt, 0) {
		if arrays[&buf[:1][0]] {
			idle++
		}
		if slices.ContainsFunc(buf[:cap(buf)], func(e trace.Event) bool { return e != trace.Event{} }) {
			t.Fatalf("an idle event buffer of capacity %d holds a recorded event", cap(buf))
		}
	}
	if idle != len(arrays) || idle == 0 {
		t.Errorf("%d of the run's %d blocks are idle in trace.EventBufs after Release, want all", idle, len(arrays))
	}
	if _, err := p.Trace(); !errors.Is(err, ErrWritten) {
		t.Errorf("Trace after Release: %v, want ErrWritten", err)
	}
	if err := p.WriteTo(t.TempDir()); !errors.Is(err, ErrWritten) {
		t.Errorf("WriteTo after Release: %v, want ErrWritten", err)
	}
	if err := p.WriteToSink(&chunkCounter{}); !errors.Is(err, ErrWritten) {
		t.Errorf("WriteToSink after Release: %v, want ErrWritten", err)
	}
	if err := p.Release(); !errors.Is(err, ErrWritten) {
		t.Errorf("Release after Release: %v, want ErrWritten", err)
	}
	if !reflect.DeepEqual(*kept, want) {
		t.Error("a Trace taken before Release changed")
	}
}

// TestWarmRecordBorrowsItsBlocks: a run recorded after an equal run was
// written records into that run's blocks, every one, and allocates only
// its block list's doublings — five against TestEmitAllocs' fifteen. The
// least of three tries: a stray allocation elsewhere in the process may
// land inside one.
func TestWarmRecordBorrowsItsBlocks(t *testing.T) {
	const n = 10000
	emptyEventBufs()
	emit := func(s *Session) {
		e := trace.Event{Kind: trace.KindTransition, Proc: s.proc, Name: "python→backend"}
		for i := 0; i < n; i++ {
			e.Start, e.End = vclock.Time(i), vclock.Time(i)
			s.Emit(e)
		}
		s.closed = true
	}
	written := New(Options{Workload: "allocs", Seed: 1})
	emit(written.NewProcess("m", -1, 0))
	least := uint64(math.MaxUint64)
	for range 3 {
		arrays := blockArrays(written)
		if err := written.WriteToSink(&chunkCounter{}); err != nil {
			t.Fatal(err)
		}
		warm := New(Options{Workload: "allocs", Seed: 1})
		s := warm.NewProcess("m", -1, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		emit(s)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		for a := range blockArrays(warm) {
			if !arrays[a] {
				t.Fatal("a warm session made a block where the written run's was idle")
			}
		}
		written = warm
	}
	if least != 5 {
		t.Errorf("recording %d events after a write: %d allocs, want 5", n, least)
	}
}
