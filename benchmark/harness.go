package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// refKernel is the drift reference every op is normalised by: 24 rounds
// of refilling 16 KiB with xorshift64 and sorting it. It allocates
// nothing, holds no pointers and imports no repository code, so neither
// GC assist nor the program's cache footprint leaks into its timing; what
// moves it is what moves every CPU-bound op on this machine (frequency,
// steal, a noisy neighbour).
type refKernel struct {
	buf [2048]uint64
}

const refKernelReps = 24

func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	for rep := 0; rep < refKernelReps; rep++ {
		x := uint64(0x9E3779B97F4A7C15)
		for i := range k.buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.buf[i] = x
		}
		slices.Sort(k.buf[:])
	}
	return time.Since(t0)
}

// sample appends n kernel timings, in milliseconds, to ms.
func (k *refKernel) sample(ms []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		ms = append(ms, float64(k.run())/1e6)
	}
	return ms
}

// variant is one fixed, seed-determined op of a workload. run is the
// timed region; prepare and check run untimed on either side of it. check
// verifies the output run left behind against the reference built at
// set-up and reports the bytes that crossed the workload's storage or wire
// boundary.
type variant struct {
	name    string
	units   int64 // trace events (requests for serve) one op processes
	prepare func(op int) error
	run     func(op int, sp *spans) error
	check   func(op int) (ioBytes int64, err error)
}

// instance is a workload after set-up: fixtures generated, stores
// populated, every variant warmed once.
type instance struct {
	variants []*variant
	close    func()
}

// workload names a set-up function and how many rounds one second of
// --seconds buys. Rounds are a count, never a deadline, so two runs of one
// seed do exactly the same work; roundsPerSecond was sized once on the
// 2-vCPU sandbox so the timed phase lasts about --seconds there.
type workload struct {
	name            string
	why             string
	roundsPerSecond float64
	// warmRounds untimed rounds close every set-up: they fill caches and
	// pools, and make set-up long enough to time.
	warmRounds int
	setup      func(e *env) (*instance, error)
}

// env is what one run hands its workloads.
type env struct {
	seed  int64
	scale float64 // multiplies fixture sizes and rounds; 1 except in tests
	store string  // root of every trace dir and server store of this run
	sp    *spans  // nil unless this is the traced run
}

// scaled sizes a fixture dimension, never below min.
func (e *env) scaled(n, min int) int {
	v := int(float64(n) * e.scale)
	if v < min {
		return min
	}
	return v
}

func (e *env) dir(parts ...string) string {
	return filepath.Join(append([]string{e.store}, parts...)...)
}

// variantStats is what the timed loop keeps per variant.
type variantStats struct {
	name  string
	units int64
	wall  []float64 // ms, one per round
}

// runResult is one workload run: set-up repeats, then the timed rounds.
type runResult struct {
	setupS     []float64
	variants   []*variantStats
	kernelMS   []float64
	units      int64
	ioBytes    int64
	allocBytes uint64
	allocs     uint64
	opWall     time.Duration // sum of the ops' timed regions
	timed      time.Duration // whole timed phase, checks and kernels included
	cpu        time.Duration
	gcCycles   uint32
	attempted  int
	failed     int
	firstErr   error
}

// allocCounter reads the cumulative heap allocation totals. ReadMemStats
// flushes every P's allocation cache first, so the deltas around an op are
// exact; runtime/metrics is cheaper but lags by up to a span per size class.
type allocCounter struct {
	ms runtime.MemStats
}

func newAllocCounter() *allocCounter { return &allocCounter{} }

func (c *allocCounter) read() (bytes, objects uint64) {
	runtime.ReadMemStats(&c.ms)
	return c.ms.TotalAlloc, c.ms.Mallocs
}

// rusage reads the process's resource usage; the zero value if the call
// fails, which on Linux it does not.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // ru stays zero on error
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// pinRuntime fixes the two runtime knobs that change how much of an op's
// time is GC and how many threads it may use.
func pinRuntime() {
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, which drops the cold first pass.
const setupRepeats = 3

// Set-up is timed in drift-corrected seconds: its wall time scaled by
// nominalKernelMS ÷ the median of the setupKernels reference-kernel runs on
// either side of it. nominalKernelMS is what the kernel takes on the sizing
// sandbox when it is quiet, so the figure reads as seconds on that machine.
// Uncorrected, the medians of two sets of ten runs a quarter of an hour
// apart differed by 12–15 % on every workload while the kernel moved with
// them; corrected, by under 2 %.
const (
	nominalKernelMS = 2.0
	setupKernels    = 6
)

// deadlineFactor bounds a run on a machine much slower than the one the
// round counts were sized on: past seconds × this, the timed loop stops at
// the end of the round it is in.
const deadlineFactor = 2.5

// minRounds is the fewest timed rounds a full-scale run may report on.
const minRounds = 8

func (w *workload) rounds(seconds int, scale float64) int {
	r := int(w.roundsPerSecond*float64(seconds)*scale + 0.5)
	if r < 2 {
		r = 2
	}
	return r
}

// warmUp runs the set-up's untimed rounds; an op that fails here fails the
// run, since no reference can be trusted after it.
func (w *workload) warmUp(inst *instance) error {
	for round := 0; round < w.warmRounds; round++ {
		for _, v := range inst.variants {
			op := -1 - round // distinct from every timed op id
			if v.prepare != nil {
				if err := v.prepare(op); err != nil {
					inst.close()
					return err
				}
			}
			err := v.run(op, nil)
			if err == nil {
				_, err = v.check(op)
			}
			if err != nil {
				inst.close()
				return fmt.Errorf("warm-up %s: %w", v.name, err)
			}
		}
	}
	return nil
}

// measure sets the workload up `setups` times (keeping the last), then
// times `rounds` rounds of its variants in fixed order.
func (w *workload) measure(e *env, rounds int, budget time.Duration, setups int) (*runResult, error) {
	res := &runResult{}
	var (
		kernel refKernel
		inst   *instance
	)
	kernel.run() // fault the buffer in
	around := kernel.sample(nil, setupKernels)
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		if err := os.RemoveAll(e.dir(w.name)); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(e)
		if err == nil {
			err = w.warmUp(inst)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		wall := time.Since(t0)
		around = kernel.sample(around, setupKernels)
		res.setupS = append(res.setupS, wall.Seconds()*nominalKernelMS/median(around))
		around = around[setupKernels:] // the runs after this set-up precede the next
	}
	defer inst.close()

	for _, v := range inst.variants {
		res.variants = append(res.variants, &variantStats{name: v.name, units: v.units})
	}
	allocs := newAllocCounter()
	runtime.GC()
	allocs.read()
	gc0 := allocs.ms.NumGC
	timedStart := time.Now()
	deadline := timedStart.Add(time.Duration(float64(budget) * deadlineFactor))
	op := 0
	for round := 0; round < rounds; round++ {
		if round >= minRounds && time.Now().After(deadline) {
			break
		}
		for i, v := range inst.variants {
			op++
			res.attempted++
			fail := func(err error) {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("%s/%s op %d: %w", w.name, v.name, op, err)
				}
			}
			if v.prepare != nil {
				if err := v.prepare(op); err != nil {
					fail(err)
					continue
				}
			}
			k0 := kernel.run()
			root := e.sp.begin("op:"+v.name, op)
			b0, o0 := allocs.read()
			c0 := cpuTime()
			t0 := time.Now()
			err := v.run(op, e.sp)
			wall := time.Since(t0)
			c1 := cpuTime()
			b1, o1 := allocs.read()
			e.sp.end(root)
			k1 := kernel.run()
			if err != nil {
				fail(err)
				continue
			}
			io, err := v.check(op)
			if err != nil {
				fail(err)
				continue
			}
			st := res.variants[i]
			st.wall = append(st.wall, float64(wall)/1e6)
			res.kernelMS = append(res.kernelMS, float64(k0)/1e6, float64(k1)/1e6)
			res.units += v.units
			res.ioBytes += io
			res.allocBytes += b1 - b0
			res.allocs += o1 - o0
			res.opWall += wall
			res.cpu += c1 - c0
		}
	}
	allocs.read()
	res.gcCycles = allocs.ms.NumGC - gc0
	res.timed = time.Since(timedStart)
	return res, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Units of the end-to-end metrics, as BENCHMARK.json declares them.
const (
	unitSetup = "s"
	unitNorm  = "refk/Munit"
	unitBytes = "B/unit"
	unitCount = "1/unit"
)

// opQuantile is the order statistic that stands for a variant's op time.
// Interference on a shared VM only ever slows an op, so the low tail of
// identical ops is what repeats from run to run: over eight same-seed runs
// per workload the 10th percentile's run-to-run spread was about half the
// median's (README.md has the table).
const opQuantile = 0.10

// normTimePerMUnit is the gated timing: per variant the opQuantile of the
// op's wall time over the rounds, in units of the run's median reference
// kernel, summed over variants and divided by the events (requests) one
// round processes, per 10⁶. The kernel runs around every op, so its median
// samples the machine over exactly the period the ops ran in.
func (r *runResult) normTimePerMUnit() float64 {
	ref := median(r.kernelMS)
	var sum float64
	var units int64
	for _, v := range r.variants {
		if len(v.wall) == 0 {
			continue
		}
		sum += v.normOp(ref)
		units += v.units
	}
	if units == 0 {
		return 0
	}
	return sum / float64(units) * 1e6
}

// normOp is the variant's op time in reference-kernel runs.
func (v *variantStats) normOp(refMS float64) float64 {
	return percentile(v.wall, opQuantile) / refMS
}

func (r *runResult) endToEnd() map[string]metric {
	u := float64(max(r.units, 1))
	return map[string]metric{
		"setup_s":              {median(r.setupS), unitSetup},
		"norm_time_per_munit":  {r.normTimePerMUnit(), unitNorm},
		"alloc_bytes_per_unit": {float64(r.allocBytes) / u, unitBytes},
		"allocs_per_unit":      {float64(r.allocs) / u, unitCount},
		"io_bytes_per_unit":    {float64(r.ioBytes) / u, unitBytes},
	}
}

// harnessLayer reports the raw, ungated figures of one run.
func (r *runResult) harnessLayer(out *layerSink) {
	var walls []float64
	for _, v := range r.variants {
		walls = append(walls, v.wall...)
	}
	u := float64(max(r.units, 1))
	out.set("harness.raw_units_per_s", u/max(r.opWall.Seconds(), 1e-9), "1/s")
	out.set("harness.op_ms_p50", percentile(walls, 0.50), "ms")
	out.set("harness.op_ms_p95", percentile(walls, 0.95), "ms")
	out.set("harness.ref_kernel_ms_p50", percentile(r.kernelMS, 0.50), "ms")
	out.set("harness.cpu_ns_per_unit", float64(r.cpu)/u, "ns/unit")
	out.set("harness.peak_rss_mb", peakRSSMB(), "MiB")
	out.set("harness.gc_cycles", float64(r.gcCycles), "count")
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between order statistics; it returns 0
// for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// dirBytes sums the sizes of the regular files directly under dir — a
// trace directory is flat.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range entries {
		fi, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// layerSink collects per-layer metrics by name; setting a name twice is a
// bug in the benchmark.
type layerSink struct {
	m map[string]metric
}

func newLayerSink() *layerSink { return &layerSink{m: map[string]metric{}} }

func (l *layerSink) set(name string, v float64, unit string) {
	if l == nil {
		return
	}
	if _, dup := l.m[name]; dup {
		panic("benchmark: per-layer metric set twice: " + name)
	}
	l.m[name] = metric{Value: v, Unit: unit}
}
