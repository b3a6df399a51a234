// Package recycle keeps scratch for reuse: a bounded stack of idle values
// and a bounded best-fit store of idle slices, which a process or a trace
// hands from the borrower that is done with one to the next that needs one;
// the one block list recorders append into; and the one way to read a
// stream to EOF into a buffer that is kept.
//
// Neither Stack nor Store is a sync.Pool. A sync.Pool empties on every
// second collection and does not show a Get on one P what was Put on
// another, so what a warm path allocated would depend on when the collector
// last ran and on where the goroutine was scheduled; here a borrower
// allocates exactly when no earlier one left a value. The price is memory
// the collector cannot take back, so both are bounded where they are
// declared: a Stack by its count of idle values, a Store by its idle
// capacity. Each caller clears, before it hands a value back, what would
// hold a name alive.
//
// A Store lends with Get and Reserve, which keep one rule: take the best fit
// and, when even that is too small, leave it idle for a shorter borrower and
// make a new slice. A too-small slice is never grown — growing copies what a
// new slice does not — and never dropped, since the next borrower may fit
// it. Get's new slice has an eighth of slack, for a borrower that fills it
// as it goes; Reserve's has exactly the room asked for, which its borrowers
// size from what they are about to write.
package recycle

import (
	"cmp"
	"io"
	"slices"
	"sync"
)

// Stack is a bounded LIFO of idle values, safe for concurrent use. Its zero
// value keeps nothing; set Max where it is declared.
type Stack[T any] struct {
	Max int // idle values kept; Put drops the rest

	mu   sync.Mutex
	idle []T
}

// Get pops the value put last, zeroing its slot so the stack no longer holds
// it; ok is false when none is idle.
func (s *Stack[T]) Get() (v T, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idle)
	if n == 0 {
		return v, false
	}
	v = s.idle[n-1]
	var zero T
	s.idle[n-1] = zero
	s.idle = s.idle[:n-1]
	return v, true
}

// Put pushes v unless Max values are idle already. The caller must not use v
// after.
func (s *Stack[T]) Put(v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.idle) < s.Max {
		s.idle = append(s.idle, v)
	}
}

// Store is a bounded store of idle slices, handed out best fit and safe for
// concurrent use. Its zero value keeps nothing; set Max where it is declared.
//
// Best fit is what lets the borrowers of one store settle: were a small
// request handed a large slice, the large request behind it would find only
// small ones and replace one, time after time, in whatever order the
// borrowers happened to hand theirs back. A borrower that does not know the
// length it needs asks for the largest, want math.MaxInt, not the smallest.
type Store[T any] struct {
	Max int // idle capacity, in elements, kept; Put drops the largest past it

	mu   sync.Mutex
	idle [][]T // ascending capacity
	held int   // the summed capacity of idle
}

// Get returns an empty slice with room for need elements: the best fit for
// want — the smallest idle slice with room for want elements or, when none
// has, the largest — when that has the room, else a new one of need+need/8,
// with the slice taken put back for a shorter borrower. want picks the fit:
// the length the borrower expects to fill, or math.MaxInt when it cannot
// tell. Get(want, 0) never allocates: it returns the best fit, or nil when
// none is idle. What lies past the slice's length is the last borrower's.
func (s *Store[T]) Get(want, need int) []T { return s.get(want, need, need+need/8) }

// get is Get, making a new slice of size elements.
func (s *Store[T]) get(want, need, size int) []T {
	var buf []T
	s.mu.Lock()
	if len(s.idle) > 0 {
		i, _ := slices.BinarySearchFunc(s.idle, want, capCompare[T])
		i = min(i, len(s.idle)-1)
		buf = s.idle[i]
		s.idle = slices.Delete(s.idle, i, i+1)
		s.held -= cap(buf)
	}
	s.mu.Unlock()
	if cap(buf) >= need {
		return buf
	}
	s.Put(buf)
	return make([]T, 0, size)
}

// Put hands buf back, emptied, then drops the largest idle slices while
// their capacity sums past Max; a slice without capacity, or put to a nil
// Store, is dropped. The caller must not use buf after.
func (s *Store[T]) Put(buf []T) {
	if s == nil || cap(buf) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _ := slices.BinarySearchFunc(s.idle, cap(buf), capCompare[T])
	s.idle = slices.Insert(s.idle, i, buf[:0])
	for s.held += cap(buf); s.held > s.Max; {
		last := len(s.idle) - 1
		s.held -= cap(s.idle[last])
		s.idle[last] = nil
		s.idle = s.idle[:last]
	}
}

// Reserve returns buf with room for n more elements: buf itself when it has
// the room, else its elements moved into the best fit with the room, or into
// a new slice of exactly len(buf)+n, and buf put back. A nil Store grows buf
// by slices.Grow and keeps nothing, so a borrower that is handed no store
// grows where it would have borrowed.
func (s *Store[T]) Reserve(buf []T, n int) []T {
	if s == nil {
		return slices.Grow(buf, n)
	}
	if cap(buf)-len(buf) >= n {
		return buf
	}
	need := len(buf) + n
	moved := append(s.get(need, need, need), buf...)
	s.Put(buf)
	return moved
}

func capCompare[T any](buf []T, n int) int { return cmp.Compare(cap(buf), n) }

// BlockList is an append-only list of values in fixed-capacity blocks: the
// first holds Min values and each later one twice the last, up to Max; set
// both where the list is declared. A block is never regrown, so appending
// copies no value, and a value stays where it landed for as long as a
// reader keeps the blocks. A Store, if set, lends each block — the best
// fit, whole and not zeroed, when that holds between the block's size and
// Max values, else a new one — and Release hands the blocks back.
type BlockList[T any] struct {
	Min, Max int
	Store    *Store[T]

	blocks [][]T // the last is the open one
}

// Add extends the open block by one value, opening the next block when it
// is full, and returns a pointer to that value for the caller to set. The
// caller's value is copied once, straight into the block; an argument
// passed by value would be copied to a temporary first, on every call.
func (l *BlockList[T]) Add() *T {
	k := len(l.blocks) - 1
	if k < 0 || len(l.blocks[k]) == cap(l.blocks[k]) {
		k = l.next()
	}
	b := &l.blocks[k]
	*b = (*b)[:len(*b)+1]
	return &(*b)[len(*b)-1]
}

// AppendRun adds vs, at most Min of them, in one block: it opens the next
// unless the open one has room for the whole run.
func (l *BlockList[T]) AppendRun(vs ...T) {
	k := len(l.blocks) - 1
	if k < 0 || cap(l.blocks[k])-len(l.blocks[k]) < len(vs) {
		k = l.next()
	}
	l.blocks[k] = append(l.blocks[k], vs...)
}

// next opens the next block and returns its index.
func (l *BlockList[T]) next() int {
	n := l.Min
	if k := len(l.blocks) - 1; k >= 0 {
		n = min(2*cap(l.blocks[k]), l.Max)
	}
	var b []T
	if l.Store != nil {
		b = l.Store.Get(n, 0)
	}
	if cap(b) < n || cap(b) > l.Max {
		l.Store.Put(b)
		b = make([]T, 0, n)
	}
	l.blocks = append(l.blocks, b)
	return len(l.blocks) - 1
}

// Release clears the blocks and hands them to Store, emptying the list.
func (l *BlockList[T]) Release() {
	for _, b := range l.blocks {
		clear(b)
		l.Store.Put(b)
	}
	l.blocks = nil
}

// Blocks is the list's blocks in append order, the open one last. They are
// the list's own, not a copy: the caller must not write to them, and a
// later Add or AppendRun may lengthen the last in place.
func (l *BlockList[T]) Blocks() [][]T { return l.blocks }

// ReadAll reads r to EOF into buf[:0] and returns the filled slice, growing
// it only when the bytes that have arrived fill it — never from what r's
// source declares.
func ReadAll(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
