// Package vclock provides the deterministic virtual time source that all
// simulated processes in this repository run on.
//
// RL-Scope's algorithms (cross-stack overlap, calibration, overhead
// correction) consume timestamped event traces; they do not care whether the
// timestamps were produced by clock_gettime on real hardware or by a
// simulation. Replacing the wall clock with a virtual clock makes every
// experiment deterministic and fast while preserving the full temporal
// structure the profiler depends on: asynchronous GPU kernels, CPU/GPU
// overlap, and profiler-induced CPU-time inflation.
//
// Each simulated process owns one Clock. Time only moves when the workload
// explicitly spends it (Advance), exactly like CPU time on a dedicated core.
package vclock

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// MinTime and MaxTime are the extreme representable instants, used as
// half-open window sentinels by the sharded analysis engine.
const (
	MinTime Time = math.MinInt64
	MaxTime Time = math.MaxInt64
)

// Duration is a span of virtual time in nanoseconds. It converts directly to
// and from time.Duration.
type Duration int64

// Common durations, mirroring the time package for readability at call sites.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String formats the duration using time.Duration notation (e.g. "1.5ms").
func (d Duration) String() string { return time.Duration(d).String() }

// Seconds reports the time as floating-point seconds since run start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Clock is a per-process virtual clock. The zero value is not usable; create
// clocks with NewAt so they carry a deterministic RNG stream for cost jitter.
//
// Clock is not safe for concurrent use: each simulated process is
// single-threaded, exactly like the Python processes RL-Scope profiles.
type Clock struct {
	now Time
	rng *rand.Rand
}

// NewAt returns a clock starting at the given time. Used when forking a
// simulated child process from a parent (the child inherits the parent's
// current time, like fork(2)).
func NewAt(start Time, seed int64) *Clock {
	return &Clock{now: start, rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new time. Negative
// durations panic: virtual time, like real time, is monotonic.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("vclock: Advance by negative duration %v", d))
	}
	c.now += Time(d)
	return c.now
}

// AdvanceTo moves the clock forward to t if t is in the future; it never
// moves the clock backwards. It reports the resulting current time. This is
// how blocking waits (e.g. cudaDeviceSynchronize) are modelled.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Rand exposes the clock's deterministic RNG stream. Cost models use it for
// duration jitter so that runs are reproducible given the same seed.
func (c *Clock) Rand() *rand.Rand { return c.rng }

// Dist is a duration distribution used by cost models: a mean with a
// relative jitter. Sample draws are uniform in
// [mean*(1-jitter), mean*(1+jitter)], floored at zero.
//
// Jitter matters for fidelity: RL-Scope calibrates the *average* duration of
// book-keeping code and subtracts mean*count, so per-occurrence variance is
// precisely what produces the paper's residual ±16% correction error.
type Dist struct {
	Mean   Duration
	Jitter float64 // relative, e.g. 0.2 for ±20%
}

// Exact returns a distribution with no jitter.
func Exact(mean Duration) Dist { return Dist{Mean: mean} }

// Jittered returns a distribution with the given relative jitter.
func Jittered(mean Duration, jitter float64) Dist { return Dist{Mean: mean, Jitter: jitter} }

// Sample draws one duration from the distribution using rng.
func (d Dist) Sample(rng *rand.Rand) Duration {
	if d.Mean <= 0 {
		return 0
	}
	if d.Jitter == 0 {
		return d.Mean
	}
	f := 1 + d.Jitter*(2*rng.Float64()-1)
	v := Duration(float64(d.Mean) * f)
	if v < 0 {
		v = 0
	}
	return v
}

// Scale returns a copy of the distribution with the mean multiplied by f.
func (d Dist) Scale(f float64) Dist {
	return Dist{Mean: Duration(float64(d.Mean) * f), Jitter: d.Jitter}
}

// Spend samples dist and advances the clock by the sampled amount, returning
// the start and end timestamps of the spent interval. It is the standard way
// cost models consume time.
func (c *Clock) Spend(dist Dist) (start, end Time) {
	start = c.now
	c.Advance(dist.Sample(c.rng))
	return start, c.now
}
