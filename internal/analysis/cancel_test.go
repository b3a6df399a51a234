package analysis

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// settleGoroutines polls until the goroutine count is back at or below the
// baseline (plus runtime slack) or the deadline passes. Pool workers exit
// asynchronously after Wait's join returns in their parent, so a short
// settle window avoids false positives without hiding real leaks.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunStreamContextCancelMidStream cancels streaming analyses at
// randomized chunk boundaries (via the Progress hook, which runs on the
// producing goroutine) and asserts the streaming run returns ctx.Err()
// promptly, reports the partial stats, and leaks no goroutines.
func TestRunStreamContextCancelMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := randomTrace(rng)
	dir := writeTrace(t, tr, 512)
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := r.NumChunks()
	if n < 4 {
		t.Fatalf("want several chunks for mid-stream cancellation, got %d", n)
	}
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 12; trial++ {
		workers := 1 + rng.Intn(8)
		budget := []int64{0, 1 << 11}[rng.Intn(2)]
		cutAt := 1 + rng.Intn(n-1) // cancel after this many chunks
		ctx, cancel := context.WithCancel(context.Background())
		results, stats, err := run(ctx, readerSource{r}, Options{
			Workers: workers, MaxResidentBytes: budget,
			Progress: func(p Progress) {
				if p.ChunksDone >= cutAt {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d (workers %d, cut %d/%d): err = %v, want context.Canceled",
				trial, workers, cutAt, n, err)
		}
		if results != nil {
			t.Fatalf("trial %d: cancelled run returned partial results", trial)
		}
		// The loop observes the cancellation at the next chunk boundary:
		// one decode past the cancelling callback at most.
		if stats.ChunksDecoded < cutAt || stats.ChunksDecoded > cutAt+1 {
			t.Fatalf("trial %d: decoded %d chunks, cancellation requested after %d",
				trial, stats.ChunksDecoded, cutAt)
		}
	}
	settleGoroutines(t, baseline)
}

// TestRunStreamContextPreCancelled asserts a cancelled context stops the
// streaming engine before any chunk is decoded.
func TestRunStreamContextPreCancelled(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)))
	dir := writeTrace(t, tr, 1<<10)
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats, err := run(ctx, readerSource{r}, Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil || stats.ChunksDecoded != 0 {
		t.Fatalf("pre-cancelled run did work: results=%v decoded=%d", results, stats.ChunksDecoded)
	}
}

// TestRunContextCancelled asserts the materialized path reports ctx.Err()
// and discards partial results.
func TestRunContextCancelled(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(11)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		results, _, err := run(ctx, newMemSource(tr), Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if results != nil {
			t.Fatalf("workers %d: cancelled run returned results", workers)
		}
	}
}

// TestRunStreamCancelStressNoLeak hammers cancellation at every point of
// the pipeline concurrently-timed (not progress-synchronized) and asserts
// the goroutine count always settles back to baseline — the "cancellation
// drains workers" tentpole contract.
func TestRunStreamCancelStressNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := randomTrace(rng)
	dir := writeTrace(t, tr, 512)
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 30; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(rng.Intn(400)) * time.Microsecond
		timer := time.AfterFunc(delay, cancel)
		_, _, err := run(ctx, readerSource{r}, Options{Workers: 4, MaxResidentBytes: 1 << 11})
		timer.Stop()
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
	}
	settleGoroutines(t, baseline)
}
