package analysis

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool size selected by Workers <= 0: one worker per
// available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ClampWorkers resolves a worker-count option against a job count: zero or
// negative selects DefaultWorkers, and the pool never exceeds one worker
// per job. The result is the number of distinct worker indices
// ForEachWorkerContext can pass to fn.
func ClampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEachContext runs fn(0), …, fn(n-1) across a pool of workers and returns
// the lowest-index error, or nil: ForEachWorkerContext (which holds the
// scheduling contract) for callers that need no per-worker state.
func ForEachContext(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachWorkerContext(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorkerContext runs fn(w, 0), …, fn(w, n-1) across a pool of
// workers, where w identifies the executing worker (0 <= w <
// ClampWorkers(workers, n); each index is owned by exactly one goroutine),
// and returns the lowest-index error, or nil. The worker index lets callers
// thread private reusable scratch without any locking.
//
// workers <= 0 selects DefaultWorkers; a pool of one runs inline with no
// goroutines, so single-worker execution is strictly sequential. Dispatch
// is fail-fast: once any job errors — or ctx is cancelled — no further
// index is dispatched; every dispatched job (at most one of which may
// still be queued at that point) runs to completion, and every worker
// goroutine is joined before the call returns, so cancellation never leaks
// goroutines. Dispatched jobs always executing is what keeps the returned
// error deterministic: indices dispatch in order, so the lowest failing
// index is always dispatched, always runs, and always wins — skipping
// queued work instead would let a later, faster failure race it out of the
// error slot. Job errors take precedence over ctx.Err(); with no job
// error, a cancelled run returns ctx.Err().
func ForEachWorkerContext(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers = ClampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	errs := make([]error, n)
	idx := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				if err := fn(worker, i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}(w)
	}
dispatch:
	for i := 0; i < n && !failed.Load(); i++ {
		if ctx.Err() != nil {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
