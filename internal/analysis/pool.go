package analysis

import "runtime"

// DefaultWorkers is the pool size selected by Workers <= 0: one worker per
// available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ClampWorkers resolves a worker-count option against a job count: zero or
// negative selects DefaultWorkers, and the pool never exceeds one worker
// per job.
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
