package overlap

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// deepNestingEvents builds the concurrency-heavy regime where the old
// classify-by-rescan sweep was O(n²): pyramids of deeply nested CPU events
// and operations, with GPU activity overlapping everything. With depth
// concurrent events active at once, the reference sweep touches ~depth
// events per elementary interval; the incremental sweep touches O(1).
func deepNestingEvents(total, depth int) []trace.Event {
	cpuCats := []trace.Category{
		trace.CatPython, trace.CatSimulator, trace.CatBackend, trace.CatCUDA,
	}
	perPyramid := depth + depth/2 + depth/2 // CPU + op + GPU events each
	pyramids := total / perPyramid
	if pyramids < 1 {
		pyramids = 1
	}
	width := vclock.Time(4 * depth)
	var events []trace.Event
	for p := 0; p < pyramids; p++ {
		base := vclock.Time(p) * width
		// CPU pyramid: depth strictly nested events.
		for j := 0; j < depth; j++ {
			events = append(events, trace.Event{
				Kind: trace.KindCPU, Cat: cpuCats[j%len(cpuCats)],
				Start: base + vclock.Time(j), End: base + width - vclock.Time(j),
				Name: "cpu",
			})
		}
		// Op pyramid: depth/2 nested annotations over the same span.
		for j := 0; j < depth/2; j++ {
			events = append(events, trace.Event{
				Kind:  trace.KindOp,
				Start: base + vclock.Time(2*j), End: base + width - vclock.Time(2*j),
				Name: "op",
			})
		}
		// GPU activity: depth/2 staggered, overlapping intervals.
		for j := 0; j < depth/2; j++ {
			cat := trace.CatGPUKernel
			if j%2 == 1 {
				cat = trace.CatGPUMemcpy
			}
			events = append(events, trace.Event{
				Kind: trace.KindGPU, Cat: cat,
				Start: base + vclock.Time(j), End: base + width/2 + vclock.Time(j),
				Name: "k",
			})
		}
	}
	return events
}

// TestDeepNestingMatchesReference keeps the benchmark honest: both sweeps
// must produce identical results on the stress trace.
func TestDeepNestingMatchesReference(t *testing.T) {
	events := deepNestingEvents(2000, 100)
	if !resultsEqual(Compute(events), refCompute(events)) {
		t.Fatal("incremental and reference sweeps diverge on the deep-nesting trace")
	}
}

// TestSweepAllocs pins what a warm sweep costs the allocator: with the
// Sweeper and the Result held by the caller, as the analysis workers hold
// them, it allocates nothing. The package-level Compute allocates the Result
// it returns besides, which TestComputeWindowAllocs pins.
func TestSweepAllocs(t *testing.T) {
	events := deepNestingEvents(10_000, 100)
	sw := NewSweeper()
	var res Result
	sweep := func() { sw.ComputeWindowInto(&res, events, vclock.MinTime, vclock.MaxTime) }
	sweep()
	if len(res.ByKey) == 0 {
		t.Fatal("empty result")
	}
	if got := testing.AllocsPerRun(10, sweep); got != 0 {
		t.Errorf("warm sweep of %d events: %.0f allocs, want 0", len(events), got)
	}
}

// BenchmarkOverlapDeepNesting measures the incremental sweep against the
// retained reference implementation on ~10k events with up to ~100
// simultaneously active events — the regime the incremental state machine
// exists for. Ungated: R.sweep-subquadratic in the hypothesis grid holds
// the scaling claim, TestSweepAllocs the allocation one.
func BenchmarkOverlapDeepNesting(b *testing.B) {
	events := deepNestingEvents(10_000, 100)
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := Compute(events); len(res.ByKey) == 0 {
				b.Fatal("empty result")
			}
		}
		b.ReportMetric(float64(len(events)), "events")
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := refCompute(events); len(res.ByKey) == 0 {
				b.Fatal("empty result")
			}
		}
		b.ReportMetric(float64(len(events)), "events")
	})
}
