package experiments

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f with GOMAXPROCS set to procs — the fan-out's bound — and
// restores the previous value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 100} {
		var hits [57]int32
		withProcs(procs, func() {
			if err := forEach(context.Background(), len(hits), func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			}); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
		})
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, n)
			}
		}
	}
}

// TestForEachBoundsConcurrency: no more than GOMAXPROCS jobs run at once.
func TestForEachBoundsConcurrency(t *testing.T) {
	for _, procs := range []int{1, 3} {
		var mu sync.Mutex
		running, peak := 0, 0
		withProcs(procs, func() {
			forEach(context.Background(), 40, func(int) error {
				mu.Lock()
				running++
				peak = max(peak, running)
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
				mu.Lock()
				running--
				mu.Unlock()
				return nil
			})
		})
		if peak > procs {
			t.Fatalf("GOMAXPROCS=%d: %d jobs ran at once", procs, peak)
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, procs := range []int{2, 4, 8} {
		var err error
		withProcs(procs, func() {
			err = forEach(context.Background(), 20, func(i int) error {
				switch i {
				case 3:
					return errA
				case 17:
					return errB
				}
				return nil
			})
		})
		if err != errA {
			t.Fatalf("GOMAXPROCS=%d: got %v, want lowest-index error %v", procs, err, errA)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := forEach(context.Background(), 0, func(int) error { return errors.New("called") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachCancelMidDispatch cancels at randomized dispatch points from
// inside a job and asserts dispatch stops, every job goroutine exits, jobs
// past the stop point never run, and the call returns ctx.Err(). A job past
// the cancelling one waits for the cancellation before it returns its slot,
// so how far dispatch gets does not depend on the scheduler: each other slot
// can be holding one such job, and the dispatcher — which checks the context
// after taking a slot — can have at most one more in flight.
func TestForEachCancelMidDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		const n = 200
		procs := 1 + rng.Intn(8)
		target := rng.Intn(n / 2)
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan struct{})
		var ran atomic.Int64
		var err error
		withProcs(procs, func() {
			err = forEach(ctx, n, func(i int) error {
				ran.Add(1)
				switch {
				case i == target:
					cancel()
					close(cancelled)
				case i > target:
					<-cancelled
				}
				return nil
			})
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d (GOMAXPROCS %d, target %d): err = %v, want context.Canceled",
				trial, procs, target, err)
		}
		if got, limit := ran.Load(), int64(target+procs+1); got > limit {
			t.Fatalf("trial %d (GOMAXPROCS %d): %d jobs ran despite cancellation at index %d, want at most %d",
				trial, procs, got, target, limit)
		}
	}
	// A job's goroutine exits just after the join it signals: poll briefly.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline+2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestForEachErrorBeatsCancel asserts job errors keep their deterministic
// lowest-index priority over the context error.
func TestForEachErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	var err error
	withProcs(4, func() {
		err = forEach(ctx, 50, func(i int) error {
			if i == 10 {
				cancel()
				return boom
			}
			return nil
		})
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want job error to take precedence over cancellation", err)
	}
}
