// Package recycle keeps scratch for reuse: a bounded stack of idle values
// that a process or a trace hands from the borrower that is done with one to
// the next that needs one, and the one way to read a stream to EOF into a
// buffer that is kept.
//
// A Stack is a plain mutex-guarded slice, not a sync.Pool. A sync.Pool
// empties on every second collection and does not show a Get on one P what
// was Put on another, so what a warm path allocated would depend on when the
// collector last ran and on where the goroutine was scheduled; here a
// borrower allocates exactly when no earlier one left a value. The price is
// memory the collector cannot take back, so every Stack is bounded: Max idle
// values, fixed where the Stack is declared, and each caller drops, before
// Put, what is too large to keep and clears what would hold a name alive.
package recycle

import (
	"io"
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
