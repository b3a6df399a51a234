package multihost

import (
	"testing"
)

// BenchmarkMultiHostMerge measures the full in-memory merge of a
// 3-actor/1-learner distributed run: message pairing, offset estimation,
// proc remapping, timeline shifting, and the final sort+validate.
// MergeTraces never mutates its inputs, so the cached host traces are safe
// to reuse across iterations.
func BenchmarkMultiHostMerge(b *testing.B) {
	inputs := distTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MergeTraces(inputs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMergeAllocs pins "no per-event allocation in alignment": merging the
// distributed fixture's ~89k events allocates per host, per process and per
// output slice only.
func TestMergeAllocs(t *testing.T) {
	inputs := distTraces(t)
	got := testing.AllocsPerRun(10, func() {
		if _, _, err := MergeTraces(inputs, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > 103 {
		t.Errorf("merge of %d hosts' traces: %.0f allocs, want <= 103", len(inputs), got)
	}
}
