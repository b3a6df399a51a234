package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/vclock"
)

func TestSubmitOnIdleStream(t *testing.T) {
	d := NewDevice(2 * vclock.Microsecond)
	s := d.NewStream()
	start, end := d.Submit(0, s, 100, 50, "k", trace.CatGPUKernel)
	if start != 100+vclock.Time(2*vclock.Microsecond) {
		t.Fatalf("start = %v, want issue+latency", start)
	}
	if end != start+50 {
		t.Fatalf("end = %v, want start+50", end)
	}
}

func TestStreamFIFO(t *testing.T) {
	d := NewDevice(0)
	s := d.NewStream()
	_, end1 := d.Submit(0, s, 0, 100, "k1", trace.CatGPUKernel)
	start2, end2 := d.Submit(0, s, 10, 100, "k2", trace.CatGPUKernel)
	if start2 != end1 {
		t.Fatalf("k2 starts at %v, want %v (FIFO after k1)", start2, end1)
	}
	if start3, _ := d.Submit(0, s, 0, 1, "k3", trace.CatGPUKernel); start3 != end2 {
		t.Fatalf("k3 starts at %v, want %v (the stream's tail)", start3, end2)
	}
}

func TestStreamsIndependent(t *testing.T) {
	d := NewDevice(0)
	s1, s2 := d.NewStream(), d.NewStream()
	d.Submit(0, s1, 0, 1000, "k1", trace.CatGPUKernel)
	start2, _ := d.Submit(1, s2, 0, 10, "k2", trace.CatGPUKernel)
	if start2 != 0 {
		t.Fatalf("k2 on independent stream starts at %v, want 0", start2)
	}
}

func TestBusyUnionMergesOverlaps(t *testing.T) {
	busy := []Busy{
		{Start: 0, End: 10},
		{Start: 5, End: 20},
		{Start: 30, End: 40},
		{Start: 40, End: 50}, // adjacent merges
	}
	u := Union(busy)
	if len(u) != 2 {
		t.Fatalf("union has %d intervals, want 2: %v", len(u), u)
	}
	if u[0] != (Interval{0, 20}) || u[1] != (Interval{30, 50}) {
		t.Fatalf("union = %v", u)
	}
}

func TestUnionEmpty(t *testing.T) {
	if got := Union(nil); got != nil {
		t.Fatalf("Union(nil) = %v, want nil", got)
	}
}

func TestTotalBusy(t *testing.T) {
	d := NewDevice(0)
	s1, s2 := d.NewStream(), d.NewStream()
	d.Submit(0, s1, 0, 100, "a", trace.CatGPUKernel)
	d.Submit(0, s2, 50, 100, "b", trace.CatGPUKernel) // overlaps [50,100)
	var total vclock.Duration
	for _, iv := range Union(d.BusyIntervals()) {
		total += iv.End.Sub(iv.Start)
	}
	if total != 150 {
		t.Fatalf("busy union covers %v, want 150", total)
	}
}

func TestReset(t *testing.T) {
	d := NewDevice(0)
	s := d.NewStream()
	d.Submit(0, s, 0, 100, "a", trace.CatGPUKernel)
	d.Reset()
	if busy := d.BusyIntervals(); len(busy) != 0 {
		t.Fatalf("ledger after Reset = %v, want empty", busy)
	}
	// Stream remains usable, its tail back at zero.
	start, _ := d.Submit(0, s, 5, 10, "b", trace.CatGPUKernel)
	if start != 5 {
		t.Fatalf("post-reset submit start = %v, want 5", start)
	}
}

func TestBusyLedgerRecordsMetadata(t *testing.T) {
	d := NewDevice(0)
	s := d.NewStream()
	d.Submit(7, s, 0, 10, "matmul", trace.CatGPUKernel)
	d.Submit(7, s, 0, 5, "memcpyH2D", trace.CatGPUMemcpy)
	busy := d.BusyIntervals()
	if len(busy) != 2 {
		t.Fatalf("ledger has %d entries, want 2", len(busy))
	}
	if busy[0].Name != "matmul" || busy[0].Proc != 7 || busy[0].Cat != trace.CatGPUKernel {
		t.Fatalf("ledger entry = %+v", busy[0])
	}
	if busy[1].Cat != trace.CatGPUMemcpy {
		t.Fatalf("second entry cat = %v", busy[1].Cat)
	}
	if busy[0].Duration() != 10 {
		t.Fatalf("Duration = %v, want 10", busy[0].Duration())
	}
}

// Property: union intervals are sorted, disjoint, and their total length
// never exceeds the sum of the inputs.
func TestUnionInvariantsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		busy := make([]Busy, int(n)%32)
		var sum vclock.Duration
		for i := range busy {
			s := vclock.Time(rng.Int63n(1000))
			d := vclock.Duration(1 + rng.Int63n(100))
			busy[i] = Busy{Start: s, End: s.Add(d)}
			sum += d
		}
		u := Union(busy)
		var total vclock.Duration
		for i, iv := range u {
			if iv.End <= iv.Start {
				return false
			}
			if i > 0 && iv.Start <= u[i-1].End {
				return false
			}
			total += iv.End.Sub(iv.Start)
		}
		return total <= sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-stream FIFO means starts are non-decreasing and intervals on
// one stream never overlap.
func TestStreamFIFOProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDevice(vclock.Duration(rng.Int63n(5)))
		s := d.NewStream()
		var issue vclock.Time
		var prevEnd vclock.Time
		for i := 0; i < 50; i++ {
			issue = issue.Add(vclock.Duration(rng.Int63n(20)))
			start, end := d.Submit(0, s, issue, vclock.Duration(1+rng.Int63n(30)), "k", trace.CatGPUKernel)
			if start < prevEnd || end <= start {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
