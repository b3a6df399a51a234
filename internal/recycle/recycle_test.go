package recycle

import (
	"bytes"
	"errors"
	"io"
	"runtime"
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
