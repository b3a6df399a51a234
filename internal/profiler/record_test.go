package profiler

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// referenceSorter is trace.Trace.Sort's order — (Proc, Start, End
// descending) — as the sort.Interface the trace package sorts with.
type referenceSorter []trace.Event

func (s referenceSorter) Len() int      { return len(s) }
func (s referenceSorter) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s referenceSorter) Less(i, j int) bool {
	a, b := &s[i], &s[j]
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End > b.End
}

// referenceEvents is how Profiler.Trace assembled a run before sessions
// sorted themselves: every session's buffer, in emission order, session
// after session, then one stable sort of the lot. It reads the blocks, so
// it must run before anything sorts the sessions.
func referenceEvents(p *Profiler) []trace.Event {
	all := []trace.Event{}
	for _, s := range p.sessions {
		all = append(all, unsortedEvents(s)...)
	}
	sort.Stable(referenceSorter(all))
	return all
}

// unsortedEvents is what the session has recorded since it was last sorted,
// in emission order: its blocks end to end, less the events already keyed.
func unsortedEvents(s *Session) []trace.Event {
	return slices.Concat(s.events.Blocks()...)[len(s.sorted.keys):]
}

// emitRandom records n events straight through Emit: starts drawn from a
// narrow range so that equal starts — and equal (start, end) pairs, whose
// order only stability decides — are common, and not in start order.
func emitRandom(s *Session, rng *rand.Rand, n int) {
	names := []string{"inference", "cudaLaunchKernel", "gemm", "python→backend", ""}
	for i := 0; i < n; i++ {
		e := trace.Event{Proc: s.proc, Start: vclock.Time(rng.Intn(n/4 + 2)), Name: names[rng.Intn(len(names))]}
		switch rng.Intn(4) {
		case 0:
			e.Kind, e.Overhead, e.End = trace.KindOverhead, trace.OverheadAnnotation, e.Start
		case 1:
			e.Kind, e.End = trace.KindTransition, e.Start
		case 2:
			e.Kind, e.End = trace.KindOp, e.Start+vclock.Time(rng.Intn(3))
		default:
			e.Kind, e.Cat, e.End = trace.KindCPU, trace.CatBackend, e.Start+vclock.Time(rng.Intn(50))
		}
		s.Emit(e)
	}
}

// randomRun builds a profiler of the given session count whose sessions
// hold 0, 1, a few, and several blocks' worth of events.
func randomRun(rng *rand.Rand, sessions int) *Profiler {
	p := New(Options{Workload: "random", Flags: trace.Full(), Seed: 1})
	sizes := []int{0, 1, 5, 33, 700, 5000}
	for i := 0; i < sessions; i++ {
		s := p.NewProcess(fmt.Sprintf("proc%d", i), trace.ProcID(i-1), 0)
		emitRandom(s, rng, sizes[(i+rng.Intn(len(sizes)))%len(sizes)])
		s.closed = true // not Close: it would add a root event to the 0-event sessions
	}
	return p
}

// TestTraceMatchesReferenceSort: per-session sorting and concatenation gives
// the trace one stable sort of the concatenated buffers gave, event for
// event, and so does the directory the run writes; and the same run,
// recorded again into the blocks that write handed back, traces the same.
func TestTraceMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, sessions := range []int{1, 2, 17} {
		for round := 0; round < 6; round++ {
			seed := rng.Int63()
			p := randomRun(rand.New(rand.NewSource(seed)), sessions)
			want := referenceEvents(p)
			before := p.MustTrace()
			if !reflect.DeepEqual(before.Events, want) {
				t.Fatalf("%d sessions, round %d: Trace() differs from the reference sort (%d vs %d events)",
					sessions, round, len(before.Events), len(want))
			}
			if len(before.Meta.Procs) != sessions {
				t.Fatalf("%d sessions: meta names %d", sessions, len(before.Meta.Procs))
			}
			// The caller owns what Trace returns: scribbling on it must not
			// reach the sessions' cached buffers.
			scribbled := p.MustTrace()
			for i := range scribbled.Events {
				scribbled.Events[i] = trace.Event{}
			}
			if again := p.MustTrace(); !reflect.DeepEqual(again.Events, want) {
				t.Fatalf("%d sessions: modifying a returned trace changed the next one", sessions)
			}
			dir := filepath.Join(t.TempDir(), "trace")
			if err := p.WriteTo(dir); err != nil {
				t.Fatal(err)
			}
			read, err := trace.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(read.Events, want) && len(want) > 0 {
				t.Fatalf("%d sessions, round %d: WriteTo wrote a different event sequence", sessions, round)
			}
			if again := randomRun(rand.New(rand.NewSource(seed)), sessions).MustTrace(); !reflect.DeepEqual(again, before) {
				t.Fatalf("%d sessions, round %d: the run recorded again after WriteTo traces differently", sessions, round)
			}
		}
	}
}

// TestTraceTieOrder spells out the ties the random schedules hit by chance:
// an overhead marker, a transition and two operations sharing one start —
// the wider operation first, then everything zero-width in emission order.
func TestTraceTieOrder(t *testing.T) {
	p := New(Options{Workload: "ties", Seed: 1})
	s := p.NewProcess("m", -1, 0)
	at := vclock.Time(100)
	emitted := []trace.Event{
		{Kind: trace.KindTransition, Proc: s.proc, Start: at, End: at, Name: "t"},
		{Kind: trace.KindOp, Proc: s.proc, Start: at, End: at, Name: "empty op"},
		{Kind: trace.KindOverhead, Overhead: trace.OverheadAnnotation, Proc: s.proc, Start: at, End: at, Name: "o"},
		{Kind: trace.KindOp, Proc: s.proc, Start: at, End: at + 5, Name: "op"},
		{Kind: trace.KindCPU, Cat: trace.CatPython, Proc: s.proc, Start: at - 1, End: at + 9, Name: "before"},
	}
	for _, e := range emitted {
		s.Emit(e)
	}
	s.closed = true
	want := referenceEvents(p)
	got := p.MustTrace().Events
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie order differs from the reference sort:\n got %v\nwant %v", got, want)
	}
	var names []string
	for _, e := range got {
		names = append(names, e.Name)
	}
	if order := strings.Join(names, ","); order != "before,op,t,empty op,o" {
		t.Fatalf("order %s", order)
	}
}

// TestTraceAfterLateEmit: events recorded after a trace was taken are
// sorted in with the cached ones, as one stable sort of everything would.
func TestTraceAfterLateEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	p := New(Options{Workload: "late", Seed: 1})
	s := p.NewProcess("m", -1, 0)
	emitRandom(s, rng, 3000)
	s.closed = true
	all := referenceEvents(p)
	p.MustTrace()
	if len(s.sorted.keys) != 3000 || len(unsortedEvents(s)) != 0 {
		t.Fatalf("after Trace(): %d events keyed, %d left unkeyed", len(s.sorted.keys), len(unsortedEvents(s)))
	}
	emitRandom(s, rng, 40)
	all = append(all, unsortedEvents(s)...) // behind the sorted prefix, where the raw buffer had them
	sort.Stable(referenceSorter(all))
	if got := p.MustTrace().Events; !reflect.DeepEqual(got, all) {
		t.Fatalf("late events were not sorted in: %d events, want %d", len(got), len(all))
	}
}

func TestEmitRejectsForeignProc(t *testing.T) {
	p := New(Options{Workload: "x", Seed: 1})
	s := p.NewProcess("m", -1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Emit recorded another process's event; per-session sorting would misplace it")
		}
	}()
	s.Emit(trace.Event{Kind: trace.KindTransition, Proc: s.proc + 1})
}

// TestWriteToMatchesEventAtATime: WriteTo gathers each sorted session out
// of its blocks a stage at a time; the directory must be the one the Writer
// produces when fed Trace() one event per Append call, with chunk sizes
// that put boundaries inside stages, across stages and sessions, and (the
// default) nowhere. A write ends the run it writes, so each write is of
// the same run recorded again.
func TestWriteToMatchesEventAtATime(t *testing.T) {
	record := func() *Profiler {
		p := New(Options{Workload: "chunks", Flags: trace.Full(), Seed: 9})
		dev := gpu.NewDevice(-1)
		toyWorkload(p, dev, 8)
		toyWorkload(p, dev, 2)
		rng := rand.New(rand.NewSource(71))
		for _, n := range []int{0, 1, 600} {
			s := p.NewProcess("raw", 0, 0)
			emitRandom(s, rng, n)
			s.closed = true
		}
		return p
	}
	tr := record().MustTrace()
	sink := func() *trace.DirSink {
		s, err := trace.NewDirSink(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		for _, chunkBytes := range []int{64, 4 << 10, 0} {
			ref := sink()
			w := trace.NewSinkWriter(ref, chunkBytes, trace.WithFormat(f))
			for _, e := range tr.Events {
				w.Append(e)
			}
			if err := w.Close(tr.Meta); err != nil {
				t.Fatal(err)
			}
			got, p := sink(), record()
			sorted, meta, err := p.sortedSessions()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.writeSessions(trace.NewSinkWriter(got, chunkBytes, trace.WithFormat(f)), sorted, meta); err != nil {
				t.Fatal(err)
			}
			if got.Digest() != ref.Digest() {
				t.Errorf("%v chunkBytes=%d: sessions written whole give %s, Trace() event by event %s", f, chunkBytes, got.Digest(), ref.Digest())
			}
			if f == trace.FormatV1 && chunkBytes == 0 {
				dir := filepath.Join(t.TempDir(), "trace")
				if err := record().WriteTo(dir); err != nil {
					t.Fatal(err)
				}
				if d, err := trace.DirDigest(dir); err != nil || d != ref.Digest() {
					t.Errorf("WriteTo wrote %s (%v), Trace() event by event %s", d, err, ref.Digest())
				}
				streamed := sink()
				if err := record().WriteToSink(streamed); err != nil || streamed.Digest() != ref.Digest() {
					t.Errorf("WriteToSink wrote %s (%v), Trace() event by event %s", streamed.Digest(), err, ref.Digest())
				}
			}
		}
	}
}

// TestEmitAllocs pins what recording costs the allocator when no written
// run has left blocks in trace.EventBufs: one allocation per block, plus the
// block list's own doublings — and nothing that grows with a buffer being
// regrown. 10 000 events fill blocks of 32, 64, … 1024 and four of 2048,
// the last one open: ten blocks, and a list that reached ten entries
// through capacities 1, 2, 4, 8 and 16.
func TestEmitAllocs(t *testing.T) {
	const n, runs = 10000, 10
	emptyEventBufs()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p := New(Options{Workload: "allocs", Seed: 1})
			var fresh []*Session
			for i := 0; i <= runs; i++ { // AllocsPerRun warms up with one extra call
				fresh = append(fresh, p.NewProcess("m", -1, 0))
			}
			record := func() {
				s := fresh[0]
				fresh = fresh[1:]
				e := trace.Event{Kind: trace.KindTransition, Proc: s.proc, Name: "python→backend"}
				for i := 0; i < n; i++ {
					e.Start, e.End = vclock.Time(i), vclock.Time(i)
					s.Emit(e)
				}
				if b := s.events.Blocks(); len(b) != 10 || cap(b[9]) != blockEvents {
					t.Fatalf("%d events sit in %d blocks, the last of %d", n, len(b), cap(b[len(b)-1]))
				}
			}
			const want = 10 + 5
			if got := testing.AllocsPerRun(runs, record); got != want {
				t.Errorf("recording %d events: %.0f allocs, want %d", n, got, want)
			}
		})
	}
}
