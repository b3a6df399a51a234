package recycle

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
)

// TestStackLIFOAndBound: Get hands back the value put last, Put keeps at most
// Max values, and an empty stack reports so.
func TestStackLIFOAndBound(t *testing.T) {
	s := Stack[int]{Max: 3}
	for i := 1; i <= 5; i++ {
		s.Put(i)
	}
	for _, want := range []int{3, 2, 1} {
		if got, ok := s.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if got, ok := s.Get(); ok {
		t.Fatalf("Get on an empty stack = %d, true", got)
	}
	var zero Stack[int]
	zero.Put(1)
	if _, ok := zero.Get(); ok {
		t.Fatal("a Stack without Max kept a value")
	}
}

// TestStackOutlivesGC: what is idle survives collections, unlike a sync.Pool's.
func TestStackOutlivesGC(t *testing.T) {
	s := Stack[*[64]byte]{Max: 2}
	v := new([64]byte)
	s.Put(v)
	runtime.GC()
	runtime.GC()
	if got, ok := s.Get(); !ok || got != v {
		t.Fatal("two collections emptied the stack")
	}
}

// TestStackGetZeroesSlot: a popped value is no longer held by the stack, so
// what it points at can be collected once its borrower drops it.
func TestStackGetZeroesSlot(t *testing.T) {
	s := Stack[*int]{Max: 2}
	s.Put(new(int))
	s.Put(new(int))
	s.Get()
	if p := s.idle[:2][1]; p != nil {
		t.Fatal("Get left the popped value in its slot")
	}
}

// TestStackConcurrentBorrowers: goroutines borrowing and returning at once
// never hold one value together. Run it under the race detector.
func TestStackConcurrentBorrowers(t *testing.T) {
	s := Stack[*int]{Max: 4}
	var inUse sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v, ok := s.Get()
				if !ok {
					v = new(int)
				}
				if _, dup := inUse.LoadOrStore(v, true); dup {
					t.Error("one value handed to two borrowers")
					return
				}
				*v++
				inUse.Delete(v)
				s.Put(v)
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, ok := s.Get(); ok; _, ok = s.Get() {
		n++
	}
	if n > s.Max {
		t.Errorf("%d values idle, want at most %d", n, s.Max)
	}
}

// idleCaps lists the capacities of s's idle slices, ascending, and checks
// that s's count of their sum is right and within its bound.
func idleCaps[T any](t *testing.T, s *Store[T]) []int {
	t.Helper()
	var caps []int
	sum := 0
	for _, buf := range s.idle {
		caps = append(caps, cap(buf))
		sum += cap(buf)
	}
	if sum != s.held || sum > s.Max {
		t.Fatalf("idle capacity %d, counted %d, bound %d", sum, s.held, s.Max)
	}
	return caps
}

// TestStoreBestFit: Get without a need hands out the smallest slice with
// room, the largest when none has, and nothing once the store is empty; what
// it hands out has length zero.
func TestStoreBestFit(t *testing.T) {
	s := Store[int]{Max: 1 << 10}
	for _, c := range []int{64, 8, 32, 16} {
		s.Put(make([]int, 3, c))
	}
	if got := idleCaps(t, &s); !slices.Equal(got, []int{8, 16, 32, 64}) {
		t.Fatalf("idle capacities %v, want them ascending", got)
	}
	for _, c := range []struct{ n, want int }{{10, 16}, {16, 32}, {100, 64}, {0, 8}, {1, 0}} {
		if got := s.Get(c.n, 0); cap(got) != c.want || len(got) != 0 {
			t.Errorf("Get(%d, 0) has length %d, capacity %d; want 0, %d", c.n, len(got), cap(got), c.want)
		}
	}
}

// TestStoreDropsLargestFirst: a Put that leaves more than Max elements of
// capacity idle drops the largest slices until it does not — the one put, if
// that is the largest, or the ones idle before it.
func TestStoreDropsLargestFirst(t *testing.T) {
	s := Store[int]{Max: 100}
	s.Put(make([]int, 0, 8))
	s.Put(make([]int, 0, 16))
	s.Put(make([]int, 0, 90))
	if got := idleCaps(t, &s); !slices.Equal(got, []int{8, 16}) {
		t.Errorf("a slice that takes the store over its bound left %v idle, want the two small ones", got)
	}
	s.Put(make([]int, 0, 60))
	s.Put(make([]int, 0, 30))
	if got := idleCaps(t, &s); !slices.Equal(got, []int{8, 16, 30}) {
		t.Errorf("a small slice that takes the store over its bound left %v idle, want the largest dropped", got)
	}
	s.Put(make([]int, 0, 46))
	if got := idleCaps(t, &s); !slices.Equal(got, []int{8, 16, 30, 46}) {
		t.Errorf("a slice that fills the store to its bound left %v idle, want it kept", got)
	}
}

// TestStoreBounds: a slice with room for more than Max is never kept, nor is
// one without capacity, a Store without Max keeps nothing, and however many
// slices come back the idle capacity stays within the bound.
func TestStoreBounds(t *testing.T) {
	s := Store[int]{Max: 256}
	s.Put(make([]int, 1, 257))
	s.Put(nil)
	s.Put(make([]int, 0))
	if got := idleCaps(t, &s); len(got) != 0 {
		t.Fatalf("an oversized or empty slice was kept: %v idle", got)
	}
	for i := 0; i < 16; i++ {
		s.Put(make([]int, 0, 64))
	}
	if got := idleCaps(t, &s); len(got) != 4 {
		t.Fatalf("%d slices of 64 idle under a bound of 256, want 4", len(got))
	}
	var zero Store[int]
	zero.Put(make([]int, 0, 1))
	if got := zero.Get(0, 0); got != nil {
		t.Fatal("a Store without Max kept a slice")
	}
}

// TestStoreGet: Get takes the best fit when it has room; when it has not,
// puts the slice it took back and makes one of need+need/8; and makes one
// from an empty store.
func TestStoreGet(t *testing.T) {
	s := Store[int]{Max: 1 << 10}
	for _, c := range []int{8, 64, 16} {
		s.Put(make([]int, 3, c))
	}
	if got := s.Get(10, 10); len(got) != 0 || cap(got) != 16 {
		t.Fatalf("Get(10, 10) has length %d, capacity %d; want the idle 16", len(got), cap(got))
	}
	if got := s.Get(4, 40); len(got) != 0 || cap(got) != 45 {
		t.Fatalf("Get(4, 40) has length %d, capacity %d; want a new 45", len(got), cap(got))
	}
	if got := idleCaps(t, &s); !slices.Equal(got, []int{8, 64}) {
		t.Fatalf("idle capacities %v, want the 8 too small for 40 put back", got)
	}
	var empty Store[int]
	if got := empty.Get(100, 100); len(got) != 0 || cap(got) != 112 {
		t.Fatalf("Get on an empty store has length %d, capacity %d; want a new 112", len(got), cap(got))
	}
}

// TestStoreReserve: Reserve keeps a slice with room, moves one without into
// the best-fitting idle slice and puts it back, and allocates only when no
// idle slice is large enough.
func TestStoreReserve(t *testing.T) {
	s := Store[int]{Max: 1 << 10}
	buf := append(make([]int, 0, 4), 1, 2)
	if got := s.Reserve(buf, 2); &got[:1][0] != &buf[0] {
		t.Fatal("a slice with room was moved")
	}
	big := make([]int, 0, 16)
	s.Put(big)
	got := s.Reserve(buf, 5)
	if &got[:1][0] != &big[:1][0] || !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("Reserve = %v (cap %d), want the events moved into the idle slice", got, cap(got))
	}
	if caps := idleCaps(t, &s); !slices.Equal(caps, []int{4}) {
		t.Fatalf("idle capacities %v, want the old slice put back", caps)
	}
	if got := s.Reserve(got, 100); cap(got)-len(got) < 100 || !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("Reserve past every idle slice = %v (cap %d)", got, cap(got))
	}
}

// TestStoreOutlivesGC: what is idle survives collections, unlike a
// sync.Pool's.
func TestStoreOutlivesGC(t *testing.T) {
	s := Store[byte]{Max: 1 << 10}
	buf := make([]byte, 0, 64)
	s.Put(buf)
	runtime.GC()
	runtime.GC()
	if got := s.Get(1, 0); cap(got) != 64 || &got[:1][0] != &buf[:1][0] {
		t.Fatal("two collections emptied the store")
	}
}

// TestStoreConcurrentBorrowers: goroutines borrowing and handing back
// slices at once never hold one array together, and the store ends within
// its bound. Run it under the race detector.
func TestStoreConcurrentBorrowers(t *testing.T) {
	s := Store[int]{Max: 1 << 10}
	var inUse sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 1 + (g*31+i*7)%200
				buf := s.Get(n, n)[:n]
				if _, dup := inUse.LoadOrStore(&buf[0], true); dup {
					t.Error("one array handed to two borrowers")
					return
				}
				for j := range buf {
					buf[j] = g
				}
				inUse.Delete(&buf[0])
				s.Put(buf)
			}
		}()
	}
	wg.Wait()
	idleCaps(t, &s)
}

// TestBlockListSchedule: the first block holds Min values, each later one
// twice the last up to Max, and the blocks hold every value in append order.
func TestBlockListSchedule(t *testing.T) {
	l := BlockList[int]{Min: 4, Max: 16}
	if b := l.Blocks(); len(b) != 0 {
		t.Fatalf("an empty list has %d blocks", len(b))
	}
	want := make([]int, 61)
	for i := range want {
		want[i] = i
		*l.Add() = i
	}
	var caps []int
	for _, b := range l.Blocks() {
		caps = append(caps, cap(b))
	}
	if wantCaps := []int{4, 8, 16, 16, 16, 16}; !slices.Equal(caps, wantCaps) {
		t.Errorf("block capacities %v, want %v", caps, wantCaps)
	}
	if got := slices.Concat(l.Blocks()...); !slices.Equal(got, want) {
		t.Errorf("the blocks hold %v, want %v", got, want)
	}
}

// TestBlockListRunsStayWhole: a run lands whole in one block, leaving short
// a block without room for it, and the blocks hold runs and single values
// in append order.
func TestBlockListRunsStayWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := BlockList[int]{Min: 5, Max: 20}
	var want []int
	for r := 1; r <= 300; r++ {
		run := slices.Repeat([]int{r}, 1+rng.Intn(5))
		if len(run) == 1 && r%2 == 0 {
			*l.Add() = r
		} else {
			l.AppendRun(run...)
		}
		want = append(want, run...)
	}
	blocks, short := l.Blocks(), 0
	for i, b := range blocks {
		if want := min(l.Min<<i, l.Max); cap(b) != want {
			t.Fatalf("block %d has capacity %d, want %d", i, cap(b), want)
		}
		if i+1 == len(blocks) {
			break
		}
		if b[len(b)-1] == blocks[i+1][0] {
			t.Fatalf("run %d straddles blocks %d and %d", b[len(b)-1], i, i+1)
		}
		if len(b) < cap(b) {
			short++
		}
	}
	if short == 0 {
		t.Fatal("no block was left short of a run: the test shows nothing")
	}
	if got := slices.Concat(blocks...); !slices.Equal(got, want) {
		t.Fatal("the blocks do not hold the runs in append order")
	}
}

// TestBlockListAllocatesPerBlock: appending into the open block allocates
// nothing and moves no value already there; only opening a block does.
func TestBlockListAllocatesPerBlock(t *testing.T) {
	l := BlockList[int]{Min: 256, Max: 256}
	*l.Add() = 0
	first := &l.Blocks()[0][0]
	if got := testing.AllocsPerRun(100, func() { *l.Add() = 1; l.AppendRun(2, 3) }); got != 0 {
		t.Errorf("appending inside a block: %.0f allocs, want 0", got)
	}
	for len(l.Blocks()) == 1 {
		*l.Add() = 4
	}
	if &l.Blocks()[0][0] != first || len(l.Blocks()[0]) != 256 {
		t.Error("the first block moved or lost values when the next opened")
	}
}

// TestBlockListBorrowsAndReleases: with a Store, a block is the best fit
// kept whole when its capacity lies between the block's size and Max, and a
// new block otherwise, with the misfit left idle; Release hands every block
// back cleared over its whole capacity and empties the list. Without a
// Store, Release only empties the list.
func TestBlockListBorrowsAndReleases(t *testing.T) {
	s := Store[int]{Max: 1 << 10}
	for _, c := range []int{3, 12, 100} {
		s.Put(make([]int, 0, c))
	}
	fit := &s.idle[1][:1][0] // the idle slice of capacity 12
	l := BlockList[int]{Min: 4, Max: 16, Store: &s}
	for i := 1; i <= 40; i++ {
		*l.Add() = i
	}
	var caps []int
	for _, b := range l.Blocks() {
		caps = append(caps, cap(b))
	}
	if want := []int{12, 16, 16}; !slices.Equal(caps, want) {
		t.Fatalf("block capacities %v, want %v: the 12 borrowed whole, the rest made", caps, want)
	}
	if &l.Blocks()[0][0] != fit {
		t.Fatal("the first block is not the idle slice that fits it")
	}
	if got := idleCaps(t, &s); !slices.Equal(got, []int{3, 100}) {
		t.Fatalf("idle capacities %v while borrowed, want the misfits 3 and 100", got)
	}
	l.Release()
	if len(l.Blocks()) != 0 {
		t.Fatalf("a released list has %d blocks", len(l.Blocks()))
	}
	if got := idleCaps(t, &s); !slices.Equal(got, []int{3, 12, 16, 16, 100}) {
		t.Fatalf("idle capacities %v after Release, want every block back whole", got)
	}
	for _, buf := range s.idle {
		if slices.ContainsFunc(buf[:cap(buf)], func(v int) bool { return v != 0 }) {
			t.Fatalf("an idle slice of capacity %d holds a released value", cap(buf))
		}
	}
	bare := BlockList[int]{Min: 4, Max: 16}
	*bare.Add() = 1
	bare.Release()
	if len(bare.Blocks()) != 0 {
		t.Fatal("Release without a Store left blocks in the list")
	}
}

// TestReadAll: ReadAll overwrites buf from its start, reads short reads to
// the end, keeps a buffer that has room, and returns what it read before an
// error.
func TestReadAll(t *testing.T) {
	data := bytes.Repeat([]byte("chunk"), 1000)
	buf := make([]byte, 3, len(data)+1)
	got, err := ReadAll(buf, iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadAll = %d bytes, %v; want the %d bytes read", len(got), err, len(data))
	}
	if &got[0] != &buf[0] {
		t.Error("a buffer with room for the stream was replaced")
	}
	if got, err := ReadAll(nil, bytes.NewReader(nil)); err != nil || len(got) != 0 {
		t.Errorf("an empty stream read %d bytes, %v", len(got), err)
	}
	boom := errors.New("boom")
	got, err = ReadAll(nil, io.MultiReader(bytes.NewReader(data[:7]), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) || string(got) != string(data[:7]) {
		t.Errorf("ReadAll = %q, %v; want the 7 bytes before the error and the error", got, err)
	}
}
