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

// Pool is the streaming face of the shard worker pool: jobs are submitted
// one at a time as a producer discovers them (RunStream dispatches a shard
// the moment its last contributing chunk has been decoded) instead of as a
// pre-sized index range. A pool of one executes jobs inline on the
// submitting goroutine, so single-worker streaming is strictly sequential,
// exactly like ForEachContext with one worker.
//
// The pool is context-aware: once ctx is cancelled, submitted jobs are
// accepted but no longer executed, so Wait drains the queue at channel
// speed instead of sweeping every remaining window. Producers observe the
// cancellation themselves (ctx.Err()) — the pool's only job is to stop
// burning CPU and to guarantee that Wait still joins every goroutine, so
// cancellation never leaks workers.
//
// Jobs receive the index of the worker executing them (0 in inline mode),
// so callers can give each worker private reusable scratch — the streaming
// engine hands every worker its own overlap.Sweeper.
type Pool struct {
	ctx     context.Context
	workers int
	jobs    chan func(worker int)
	wg      sync.WaitGroup
}

// NewPool starts a pool of workers bound to ctx; workers <= 0 selects
// DefaultWorkers. Callers must Wait exactly once after the last Submit.
func NewPool(ctx context.Context, workers int) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{ctx: ctx, workers: workers}
	if workers == 1 {
		return p // inline mode: no goroutines, no channel
	}
	p.jobs = make(chan func(worker int), workers)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer p.wg.Done()
			for fn := range p.jobs {
				if p.ctx.Err() != nil {
					continue // cancelled: drain without executing
				}
				fn(worker)
			}
		}(w)
	}
	return p
}

// Workers returns the resolved pool size — the number of distinct worker
// indices jobs may observe.
func (p *Pool) Workers() int { return p.workers }

// Submit schedules one job. In inline mode it runs before Submit returns,
// with worker index 0. After cancellation the job is dropped; callers
// notice through their own ctx.Err() check.
func (p *Pool) Submit(fn func(worker int)) {
	if p.jobs == nil {
		if p.ctx.Err() == nil {
			fn(0)
		}
		return
	}
	select {
	case p.jobs <- fn:
	case <-p.ctx.Done():
	}
}

// Wait closes the pool and blocks until every submitted job has finished
// (or, after cancellation, been drained unexecuted) and every worker
// goroutine has exited.
func (p *Pool) Wait() {
	if p.jobs == nil {
		return
	}
	close(p.jobs)
	p.wg.Wait()
}

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
// thread private reusable scratch — the analysis engine gives each worker
// its own overlap.Sweeper — without any locking.
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
