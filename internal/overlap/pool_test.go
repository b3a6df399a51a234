package overlap

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// drainPool empties the package pool and reports how many Sweepers it held.
func drainPool() (n int) {
	for _, ok := sweepers.Get(); ok; _, ok = sweepers.Get() {
		n++
	}
	return n
}

// TestSweeperPoolOutlivesGC: an idle Sweeper survives collections, so a warm
// caller gets back the scratch it left; one whose scratch outgrew the bound
// is dropped rather than pinned, and no more than sweepers.Max are kept.
func TestSweeperPoolOutlivesGC(t *testing.T) {
	drainPool()
	sw := GetSweeper()
	sw.Compute(deepNestingEvents(2000, 20))
	PutSweeper(sw)
	runtime.GC()
	runtime.GC()
	if got := GetSweeper(); got != sw {
		t.Fatal("two collections emptied the pool")
	}

	big := GetSweeper()
	big.bounds = make([]boundary, 0, maxSweeperScratch/32+1)
	if big.scratchBytes() <= maxSweeperScratch {
		t.Fatalf("a Sweeper holding %d B is within the %d B bound", big.scratchBytes(), maxSweeperScratch)
	}
	PutSweeper(big)
	if got := GetSweeper(); got == big {
		t.Error("a Sweeper over the scratch bound was kept")
	}

	held := make([]*Sweeper, sweepers.Max+1)
	for i := range held {
		held[i] = NewSweeper()
	}
	for _, sw := range held {
		PutSweeper(sw)
	}
	if n := drainPool(); n != sweepers.Max {
		t.Errorf("%d idle Sweepers, want %d", n, sweepers.Max)
	}
}

// TestSweeperPoolConcurrentGetPut: goroutines borrowing and returning
// Sweepers at once never share one, and every sweep through a borrowed one
// equals the reference. Run it under the race detector.
func TestSweeperPoolConcurrentGetPut(t *testing.T) {
	var inUse sync.Map
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				events := genAdversarialEvents(rng, 120)
				sw := GetSweeper()
				if _, dup := inUse.LoadOrStore(sw, true); dup {
					errs <- "one Sweeper handed to two borrowers"
					return
				}
				lo := vclock.Time(rng.Int63n(100))
				hi := lo + 1 + vclock.Time(rng.Int63n(60))
				var got Result
				sw.ComputeWindowInto(&got, events, lo, hi)
				inUse.Delete(sw)
				PutSweeper(sw)
				if !resultsEqual(&got, refComputeWindow(events, lo, hi)) {
					errs <- "a borrowed Sweeper's sweep diverges from the reference"
					return
				}
				if pkg := Compute(events); !resultsEqual(pkg, refCompute(events)) {
					errs <- "package-level sweep diverges from the reference"
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := drainPool(); n > sweepers.Max {
		t.Errorf("%d idle Sweepers, want at most %d", n, sweepers.Max)
	}
}

var resultSink *Result

// TestComputeWindowAllocs pins what a warm package-level Compute costs
// the allocator: its Result and the Result's two maps, no more — the same
// count as building those maps afresh — however often the collector ran in
// between, since the pooled Sweeper outlives it.
func TestComputeWindowAllocs(t *testing.T) {
	drainPool()
	events := deepNestingEvents(4000, 40)
	for i := 0; i < len(events); i += 7 {
		events = append(events, trace.Event{Kind: trace.KindTransition, Start: events[i].Start, End: events[i].Start, Name: progLabels[i%len(progLabels)]})
	}
	want := Compute(events)
	if len(want.Transitions) == 0 {
		t.Fatal("no transitions scoped")
	}
	rebuild := testing.AllocsPerRun(20, func() {
		res := &Result{ByKey: map[Key]vclock.Duration{}, Transitions: map[TransitionKey]int{}}
		for k, d := range want.ByKey {
			res.ByKey[k] = d
		}
		for k, n := range want.Transitions {
			res.Transitions[k] = n
		}
		resultSink = res
	})
	runtime.GC()
	runtime.GC()
	got := testing.AllocsPerRun(20, func() { Compute(events) })
	if got != rebuild {
		t.Errorf("warm Compute: %.0f allocs, want %.0f (its Result's maps)", got, rebuild)
	}
}
