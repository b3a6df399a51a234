package analysis

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// chunked splits events into n contiguous groups in slice order — the shape
// of a chunked trace arriving over the wire.
func chunked(events []trace.Event, n int) [][]trace.Event {
	if n < 1 {
		n = 1
	}
	per := (len(events) + n - 1) / n
	var out [][]trace.Event
	for len(events) > 0 {
		k := per
		if k > len(events) {
			k = len(events)
		}
		out = append(out, events[:k])
		events = events[k:]
	}
	return out
}

// TestIncrementalMatchesRun is the live-ingest equivalence property test:
// for randomized adversarial traces (overlapping phases, boundary-spanning
// events, phaseless processes) applied chunk-by-chunk across randomly-sized
// epochs — with Results read between epochs, so cached shard results must
// survive further appends — the final incremental result equals a fresh
// batch Run over the whole trace.
func TestIncrementalMatchesRun(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		want := dumpAll(Run(tr, Options{Workers: 1}))

		inc := NewIncremental()
		chunks := chunked(tr.Events, 1+rng.Intn(12))
		for len(chunks) > 0 {
			k := 1 + rng.Intn(len(chunks))
			inc.Apply(chunks[:k])
			chunks = chunks[k:]
			if rng.Intn(2) == 0 {
				inc.Results(nil) // interleaved reads must not corrupt later ones
			}
		}
		if got := dumpAll(inc.Results(nil)); got != want {
			t.Fatalf("seed %d: incremental result diverges from batch Run\ngot:\n%s\nwant:\n%s", seed, got, want)
		}
		// A quiescent state answers again without any further sweeps.
		before := inc.Stats().Shards
		if got := dumpAll(inc.Results(nil)); got != want {
			t.Fatalf("seed %d: repeated read diverges", seed)
		}
		if after := inc.Stats().Shards; after != before {
			t.Fatalf("seed %d: clean re-read swept %d shards", seed, after-before)
		}
	}
}

// TestIncrementalFilterMatchesRun checks Results' process filter: the
// filtered map holds exactly the requested processes, with the same
// per-process breakdowns as the unfiltered read, and filtered-out processes
// are not swept on its behalf.
func TestIncrementalFilterMatchesRun(t *testing.T) {
	var (
		tr  *trace.Trace
		inc *Incremental
		all map[trace.ProcID]*overlap.Result
	)
	for seed := int64(0); ; seed++ {
		if seed == 32 {
			t.Fatal("no seed under 32 produced a multi-process trace")
		}
		tr = randomTrace(rand.New(rand.NewSource(seed)))
		inc = NewIncremental()
		inc.Apply(chunked(tr.Events, 6))
		if all = inc.Results(nil); len(all) >= 2 {
			break
		}
	}
	var pick trace.ProcID
	for p := range all {
		pick = p
		break
	}
	inc2 := NewIncremental()
	inc2.Apply(chunked(tr.Events, 6))
	got := inc2.Results(map[trace.ProcID]bool{pick: true})
	if len(got) != 1 {
		t.Fatalf("filtered read returned %d processes, want 1", len(got))
	}
	if dump(got[pick]) != dump(all[pick]) {
		t.Fatalf("filtered breakdown for proc %d diverges from unfiltered", pick)
	}
	if inc2.Stats().Shards >= inc.Stats().Shards {
		t.Fatalf("filtered read swept %d shards, unfiltered %d — filter did not restrict recomputation",
			inc2.Stats().Shards, inc.Stats().Shards)
	}
}

func cpuEvent(p trace.ProcID, lo, hi vclock.Time) trace.Event {
	return trace.Event{Proc: p, Kind: trace.KindCPU, Cat: trace.CatPython, Start: lo, End: hi}
}

func phaseEvent(p trace.ProcID, name string, lo, hi vclock.Time) trace.Event {
	return trace.Event{Proc: p, Kind: trace.KindPhase, Name: name, Start: lo, End: hi}
}

// steadyEvents is n back-to-back 10-tick CPU events of process p starting
// at tick from*10, each carrying a transition marker every fourth event —
// the in-order stream a profiler ships.
func steadyEvents(p trace.ProcID, from, n int) []trace.Event {
	var out []trace.Event
	for i := from; i < from+n; i++ {
		t := vclock.Time(i * 10)
		out = append(out, cpuEvent(p, t, t+10))
		if i%4 == 0 {
			out = append(out, trace.Event{Proc: p, Kind: trace.KindTransition, Name: trace.TransPythonToBackend, Start: t + 5, End: t + 5})
		}
	}
	return out
}

// TestIncrementalShardLocality is the acceptance criterion for live ingest,
// asserted on the EventsSwept counter rather than timing: once an N-event
// trace has been analysed, the cost of absorbing one more chunk is bounded
// by the chunk plus a constant — the same for N and 4N — whichever process
// and whatever kind of event the chunk carries.
func TestIncrementalShardLocality(t *testing.T) {
	const chunk = 256
	for _, n := range []int{4 * splitEvents, 16 * splitEvents} {
		var all []trace.Event
		inc := NewIncremental()
		// apply feeds one epoch and returns the events its analysis swept.
		apply := func(events []trace.Event) int {
			t.Helper()
			all = append(all, events...)
			before := inc.Stats().EventsSwept
			inc.Apply([][]trace.Event{events})
			inc.Results(nil)
			return inc.Stats().EventsSwept - before
		}

		// Two processes, n events each, arriving in 1024-event epochs.
		for _, p := range []trace.ProcID{0, 1} {
			base := steadyEvents(p, 0, n)
			for len(base) > 0 {
				k := min(1024, len(base))
				apply(base[:k])
				base = base[k:]
			}
		}
		if w := inc.Stats().Windows; w < 2*n/splitEvents {
			t.Fatalf("n=%d: %d windows after %d events, want at least %d", n, w, inc.Stats().Events, 2*n/splitEvents)
		}

		// One more in-order chunk on proc 0: the chunk plus at most the
		// window it lands in, split or not.
		tail := steadyEvents(0, n, chunk)
		if swept := apply(tail); swept > len(tail)+2*splitEvents {
			t.Fatalf("n=%d: a %d-event append swept %d events, want at most %d", n, len(tail), swept, len(tail)+2*splitEvents)
		}
		// The same chunk arriving late, into the middle of the timeline.
		late := steadyEvents(0, n/2, chunk)
		if swept := apply(late); swept > len(late)+2*splitEvents {
			t.Fatalf("n=%d: a late %d-event append swept %d events, want at most %d", n, len(late), swept, len(late)+2*splitEvents)
		}

		// Proc 1's append sweeps nothing of proc 0, and costs the same
		// however much proc 0 holds.
		other := steadyEvents(1, n, chunk)
		all = append(all, other...)
		inc.Apply([][]trace.Event{other})
		before := inc.Stats().EventsSwept
		inc.Results(map[trace.ProcID]bool{0: true})
		if d := inc.Stats().EventsSwept - before; d != 0 {
			t.Fatalf("n=%d: proc 1's append left %d events to sweep in proc 0", n, d)
		}
		if swept := apply(nil); swept > len(other)+2*splitEvents {
			t.Fatalf("n=%d: other-process append swept %d events, want at most %d", n, swept, len(other)+2*splitEvents)
		}

		// A new phase interval costs no more than a CPU event of the same
		// extent — it re-cuts nothing.
		lo, hi := vclock.Time(n*10/4), vclock.Time(n*10/4+100)
		asCPU := apply([]trace.Event{cpuEvent(0, lo, hi)})
		asPhase := apply([]trace.Event{phaseEvent(0, "cooldown", lo, hi)})
		if asPhase > asCPU {
			t.Fatalf("n=%d: a phase interval swept %d events, a CPU event of its extent %d", n, asPhase, asCPU)
		}

		if got, want := dumpAll(inc.Results(nil)), dumpAll(Run(&trace.Trace{Events: all}, Options{Workers: 1})); got != want {
			t.Fatalf("n=%d: after locality sequence, incremental diverges from batch", n)
		}
	}
}

// TestIncrementalInOrderSweepsOnce is what the tail cut buys: a stream that
// arrives in start order, in epochs that each bring at least splitEvents/2
// buffered events per process, hands every buffered event to the sweeper
// about once — not once when it lands and again when its window is split
// and both halves re-swept — for epochs below, at and above splitEvents, and
// with reads between every epoch. The result stays the batch Run's.
func TestIncrementalInOrderSweepsOnce(t *testing.T) {
	const epochs = 12
	for _, per := range []int{splitEvents / 2, splitEvents, 3 * splitEvents} {
		var all []trace.Event
		inc := NewIncremental()
		for e := 0; e < epochs; e++ {
			var chunks [][]trace.Event
			for _, p := range []trace.ProcID{0, 1} {
				// steadyEvents adds a marker every fourth event: per CPU
				// events are 1.25 × per buffered ones.
				chunk := steadyEvents(p, e*per, per)
				chunks = append(chunks, chunk)
				all = append(all, chunk...)
			}
			inc.Apply(chunks)
			inc.Results(nil)
		}
		st := inc.Stats()
		if limit := 1.1 * float64(len(all)); float64(st.EventsSwept) > limit {
			t.Errorf("per=%d: %d buffered events cost %d events swept, want at most %.0f", per, len(all), st.EventsSwept, limit)
		}
		if got, want := dumpAll(inc.Results(nil)), dumpAll(Run(&trace.Trace{Events: all}, Options{Workers: 1})); got != want {
			t.Fatalf("per=%d: incremental result diverges from batch Run", per)
		}
		inc.Release()
	}
}

// TestIncrementalTailCutRefused: long-lived intervals still open at the
// high-water start make the tail cut refuse — more than ¾ of the tail would
// move on — and a refusal costs no locality. Every epoch still sweeps at most
// its own events plus 2 × splitEvents (TestIncrementalShardLocality's
// bound), the tail is cut again once the intervals have ended, and the
// result stays the batch Run's.
func TestIncrementalTailCutRefused(t *testing.T) {
	const per, long = 256, 2000 // an epoch: 320 buffered events over 2560 ticks
	var all []trace.Event
	inc := NewIncremental()
	injected, refused, windows := -1, false, 0
	for e := 0; e < 40; e++ {
		events := steadyEvents(0, e*per, per)
		if p := inc.procs[0]; injected < 0 && p != nil && len(p.windows) > 1 && len(p.windows[len(p.windows)-1].events) < 16 {
			// Just after a cut: the intervals outnumber what is left of the
			// tail and what this epoch brings, and outlive the epoch.
			injected = e
			start := vclock.Time(e * per * 10)
			for i := 0; i < long; i++ {
				events = append(events, trace.Event{Proc: 0, Kind: trace.KindOp, Name: "long", Start: start, End: start + 3000})
			}
		}
		all = append(all, events...)
		before := inc.Stats().EventsSwept
		inc.Apply([][]trace.Event{events})
		inc.Results(nil)
		if swept := inc.Stats().EventsSwept - before; swept > len(events)+2*splitEvents {
			t.Fatalf("epoch %d: a %d-event epoch swept %d events, want at most %d", e, len(events), swept, len(events)+2*splitEvents)
		}
		ws := inc.procs[0].windows
		if w := ws[len(ws)-1]; injected >= 0 && !refused && w.retry > 0 {
			refused, windows = true, len(ws)
		}
	}
	if injected < 0 || !refused {
		t.Fatalf("intervals injected at epoch %d, tail cut refused: %v", injected, refused)
	}
	if n := len(inc.procs[0].windows); n <= windows {
		t.Fatalf("%d windows after the refusal, %d at it: the tail was never cut again", n, windows)
	}
	if got, want := dumpAll(inc.Results(nil)), dumpAll(Run(&trace.Trace{Events: all}, Options{Workers: 1})); got != want {
		t.Fatal("incremental result diverges from batch Run")
	}
}

// TestIncrementalHandoffBuffersDoNotAlias: a closed tail keeps its buffer
// whole, events alive at the cut and past it included, while the survivors
// move into a buffer drawn off the scratch; the two must never share an
// array. Streams of in-order epochs of random size, two at a time on
// goroutines that draw on and hand back to the one pool, check after every
// read that no two windows share an array and that no closed window's buffer
// changed while later epochs filled the tail. A late chunk then re-dirties
// closed windows, past-the-cut events and all, and every result must still
// be the batch Run's — also that of a process whose one window, taken over
// from a released state, never holds an event.
func TestIncrementalHandoffBuffersDoNotAlias(t *testing.T) {
	stream := func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		var all []trace.Event
		inc := NewIncremental()
		defer inc.Release()
		closed := map[*incWindow][]trace.Event{}
		check := func(epoch int) error {
			arrays := map[*trace.Event]bool{}
			for pid, p := range inc.procs {
				for _, w := range p.windows {
					if c := cap(w.events); c > 0 {
						end := &w.events[:c][c-1] // one per array, whatever the offset
						if arrays[end] {
							return fmt.Errorf("seed %d epoch %d: proc %d's window [%d, %d) shares an array", seed, epoch, pid, w.lo, w.hi)
						}
						arrays[end] = true
					}
					if was, ok := closed[w]; ok && !slices.Equal(was, w.events) {
						return fmt.Errorf("seed %d epoch %d: proc %d's closed window [%d, %d) changed", seed, epoch, pid, w.lo, w.hi)
					} else if !ok && w.hi != vclock.MaxTime {
						closed[w] = slices.Clone(w.events)
					}
				}
			}
			return nil
		}
		// A process that only ever has a phase takes over a released
		// state too, and its one window is never swept.
		setup := phaseEvent(2, "setup", 0, 10)
		all = append(all, setup)
		inc.Apply([][]trace.Event{{setup}})
		from := [2]int{}
		for e := 0; e < 10; e++ {
			var chunks [][]trace.Event
			for p := range from {
				n := splitEvents/2 + rng.Intn(2*splitEvents)
				chunks = append(chunks, steadyEvents(trace.ProcID(p), from[p], n))
				all = append(all, chunks[p]...)
				from[p] += n
			}
			inc.Apply(chunks)
			inc.Results(nil)
			if err := check(e); err != nil {
				return err
			}
		}
		past := 0
		for w := range closed {
			if slices.ContainsFunc(w.events, func(e trace.Event) bool { return e.Start >= w.hi }) {
				past++
			}
		}
		if past == 0 {
			return fmt.Errorf("seed %d: no closed window holds an event past its cut: nothing was handed off", seed)
		}
		var late []trace.Event
		for p := range from {
			late = append(late, steadyEvents(trace.ProcID(p), from[p]/3, splitEvents)...)
		}
		all = append(all, late...)
		inc.Apply([][]trace.Event{late})
		if got, want := dumpAll(inc.Results(nil)), dumpAll(Run(&trace.Trace{Events: all}, Options{Workers: 1})); got != want {
			return fmt.Errorf("seed %d: incremental result diverges from batch Run", seed)
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if err := stream(int64(3*g + round)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// splittingTrace generates a trace whose windows split repeatedly and whose
// splits sometimes refuse. Every process gets several × splitEvents short
// events under a process-lifetime operation; odd processes snap timestamps
// to a coarse grid, so many events start and end exactly where a median cut
// falls — among them zero-width intervals and transition markers; process 0
// additionally holds a layer of long events enclosing most of its timeline
// and a burst of events sharing one start, neither of which any cut divides.
func splittingTrace(rng *rand.Rand) *trace.Trace {
	const horizon = 10_000_000
	tr := &trace.Trace{}
	cpuCats := []trace.Category{trace.CatPython, trace.CatSimulator, trace.CatBackend, trace.CatCUDA}
	ops := []string{"inference", "simulation", "backpropagation"}
	for p := trace.ProcID(0); p < 3; p++ {
		grid := vclock.Time(1)
		if p%2 == 1 {
			grid = 2000
		}
		add := func(e trace.Event) {
			e.Proc = p
			tr.Events = append(tr.Events, e)
		}
		add(trace.Event{Kind: trace.KindOp, Name: "lifetime", Start: 0, End: horizon + 10_000})
		for i, n := 0, (3+rng.Intn(3))*splitEvents; i < n; i++ {
			start := vclock.Time(rng.Intn(horizon)) / grid * grid
			end := start + vclock.Time(rng.Intn(6000))/grid*grid
			switch rng.Intn(10) {
			case 0:
				add(trace.Event{Kind: trace.KindOp, Name: ops[rng.Intn(len(ops))], Start: start, End: end})
			case 1:
				if i%50 == 0 {
					add(trace.Event{Kind: trace.KindPhase, Name: "phase", Start: start, End: end + 100_000})
				}
			case 2, 3:
				add(trace.Event{Kind: trace.KindTransition, Name: trace.TransPythonToBackend, Start: start, End: start})
			case 4, 5:
				add(trace.Event{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Name: "kernel", Start: start, End: end})
			default:
				add(trace.Event{Kind: trace.KindCPU, Cat: cpuCats[rng.Intn(len(cpuCats))], Start: start, End: end})
			}
		}
		if p == 0 {
			for i := 0; i < splitEvents/4; i++ {
				add(cpuEvent(p, vclock.Time(rng.Intn(1000)), horizon-vclock.Time(rng.Intn(1000))))
			}
			for i := 0; i < splitEvents+100; i++ {
				add(cpuEvent(p, horizon/2, horizon/2+vclock.Time(rng.Intn(3))))
			}
		}
	}
	return tr
}

// TestIncrementalArrivalOrderAndSplits is the property the size-driven
// partition rests on: where the cuts fall — and so the order events arrive
// in, the epochs they are grouped into and the reads interleaved with them
// — never shows in the result. Traces large enough to split every process's
// timeline many times over are applied sorted, in close-time order
// interleaved across processes, and fully shuffled; every final result is
// byte-equal to a batch Run.
func TestIncrementalArrivalOrderAndSplits(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := splittingTrace(rng)
		want := dumpAll(Run(tr, Options{Workers: 1}))

		for _, o := range []struct {
			name  string
			order func(a, b trace.Event) int
		}{
			{"sorted", func(a, b trace.Event) int {
				return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Start, b.Start))
			}},
			{"close-time", func(a, b trace.Event) int { return cmp.Compare(a.End, b.End) }},
			{"shuffled", nil},
		} {
			events := slices.Clone(tr.Events)
			rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
			if o.order != nil {
				slices.SortStableFunc(events, o.order)
			}
			inc := NewIncremental()
			for len(events) > 0 {
				var epoch [][]trace.Event
				for c := 1 + rng.Intn(4); c > 0 && len(events) > 0; c-- {
					k := min(1+rng.Intn(3000), len(events))
					epoch = append(epoch, events[:k])
					events = events[k:]
				}
				inc.Apply(epoch)
				switch rng.Intn(3) {
				case 0:
					inc.Results(nil)
				case 1:
					inc.Results(map[trace.ProcID]bool{trace.ProcID(rng.Intn(3)): true})
				}
			}
			if got := dumpAll(inc.Results(nil)); got != want {
				t.Fatalf("seed %d, %s order: incremental result diverges from batch Run", seed, o.name)
			}
			before := inc.Stats()
			if got := dumpAll(inc.Results(nil)); got != want {
				t.Fatalf("seed %d, %s order: repeated read diverges", seed, o.name)
			}
			if d := inc.Stats().EventsSwept - before.EventsSwept; d != 0 {
				t.Fatalf("seed %d, %s order: clean re-read swept %d events", seed, o.name, d)
			}

			// The run must have exercised what it claims to: many splits,
			// and at least one refused.
			if before.Windows < len(tr.Events)/(2*splitEvents) {
				t.Fatalf("seed %d, %s order: only %d windows for %d events", seed, o.name, before.Windows, len(tr.Events))
			}
			refused := 0
			for _, p := range inc.procs {
				for i, w := range p.windows {
					if w.retry > 0 {
						refused++
					}
					if i > 0 && p.windows[i-1].hi != w.lo {
						t.Fatalf("seed %d, %s order: windows [..%d) and [%d..) do not abut", seed, o.name, p.windows[i-1].hi, w.lo)
					}
				}
			}
			if refused == 0 {
				t.Fatalf("seed %d, %s order: no split was refused", seed, o.name)
			}
		}
	}
}
