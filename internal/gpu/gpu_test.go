package gpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/vclock"
)

func TestSubmitOnIdleStream(t *testing.T) {
	d := NewDevice(2 * vclock.Microsecond)
	s := d.NewStream()
	start, end := d.Submit(0, s, 100, 50)
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
	_, end1 := d.Submit(0, s, 0, 100)
	start2, end2 := d.Submit(0, s, 10, 100)
	if start2 != end1 {
		t.Fatalf("k2 starts at %v, want %v (FIFO after k1)", start2, end1)
	}
	if start3, _ := d.Submit(0, s, 0, 1); start3 != end2 {
		t.Fatalf("k3 starts at %v, want %v (the stream's tail)", start3, end2)
	}
}

func TestStreamsIndependent(t *testing.T) {
	d := NewDevice(0)
	s1, s2 := d.NewStream(), d.NewStream()
	d.Submit(0, s1, 0, 1000)
	start2, _ := d.Submit(1, s2, 0, 10)
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
	d.Submit(0, s1, 0, 100)
	d.Submit(0, s2, 50, 100) // overlaps [50,100)
	var total vclock.Duration
	for _, iv := range Union(d.BusyIntervals()) {
		total += iv.End.Sub(iv.Start)
	}
	if total != 150 {
		t.Fatalf("busy union covers %v, want 150", total)
	}
}

func TestBusyLedgerRecordsMetadata(t *testing.T) {
	d := NewDevice(0)
	s := d.NewStream()
	d.Submit(7, s, 0, 10)
	d.Submit(3, s, 0, 5)
	busy := d.BusyIntervals()
	if len(busy) != 2 {
		t.Fatalf("ledger has %d entries, want 2", len(busy))
	}
	if busy[0].Proc != 7 || busy[1].Proc != 3 {
		t.Fatalf("ledger procs = %d, %d, want 7, 3", busy[0].Proc, busy[1].Proc)
	}
	if busy[0].Duration() != 10 {
		t.Fatalf("Duration = %v, want 10", busy[0].Duration())
	}
}

// TestBusyIntervalsAcrossBlocks: a ledger that spans several blocks — past
// the cap, where blocks stop doubling — reads back as exactly what was
// submitted, in submission order and field for field.
func TestBusyIntervalsAcrossBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{minLedgerBlock - 1, minLedgerBlock, minLedgerBlock + 1, 4*maxLedgerBlock + 37} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			d := NewDevice(3)
			streams := []StreamID{d.NewStream(), d.NewStream(), d.NewStream()}
			want := make([]Busy, 0, n)
			var issue vclock.Time
			for i := 0; i < n; i++ {
				issue = issue.Add(vclock.Duration(rng.Int63n(10)))
				b := Busy{Proc: trace.ProcID(i % 5)}
				b.Start, b.End = d.Submit(b.Proc, streams[rng.Intn(len(streams))], issue, vclock.Duration(1+rng.Int63n(20)))
				want = append(want, b)
			}
			if got := d.BusyIntervals(); !slices.Equal(got, want) {
				t.Fatalf("ledger of %d submissions reads back as %d intervals, not the submissions in order", n, len(got))
			}
		})
	}
}

// TestSubmitAllocatesAtBlockBoundaries: recording an interval allocates
// nothing until the open block is full; crossing into the next costs that
// block, and now and then the block list's own growth.
func TestSubmitAllocatesAtBlockBoundaries(t *testing.T) {
	d := NewDevice(0)
	s := d.NewStream()
	submit := func() { d.Submit(0, s, 0, 1) }
	// Fill every block below the cap, and open the first capped one.
	for n := minLedgerBlock; n < maxLedgerBlock; n *= 2 {
		for i := 0; i < n; i++ {
			submit()
		}
	}
	submit()
	if got := testing.AllocsPerRun(100, submit); got != 0 {
		t.Fatalf("a Submit inside a block allocates %.0f times, want 0", got)
	}
	block := func() {
		for i := 0; i < maxLedgerBlock; i++ {
			submit()
		}
	}
	if got := testing.AllocsPerRun(5, block); got < 1 || got > 2 {
		t.Fatalf("a block's worth of Submits allocates %.0f times, want its one boundary's block and at most the list's growth", got)
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
			start, end := d.Submit(0, s, issue, vclock.Duration(1+rng.Int63n(30)))
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
