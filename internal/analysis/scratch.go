package analysis

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/trace"
)

// freeList is a run's scratch: the empty event buffers it may draw from, in
// ascending capacity. A batch run draws the chunk buffers of the decode-ahead
// stage, its windows' and the ones closed windows travel to the workers in;
// an Incremental draws its windows' and the ones its cuts move events into.
// Either takes a scratch from the pool, draws every buffer it needs from it
// (allocating only what the scratch cannot supply) and puts every buffer back
// — a run once its goroutines have ended, however it ends; an Incremental on
// Release, with its process states (see incProc), which the next
// Incremental's processes take over. A server's engine runs and live traces,
// an experiment's hundreds of runs and a benchmark's therefore allocate event
// buffers once per process, not once per run or per trace. The buffers are
// not cleared: the names their stale events still point at are the last
// user's interned strings, which live until the buffer is next filled.
//
// Hand-out is best fit (take). Its mutex is for the batch pipeline, whose
// workers recycle while the coordinator draws.
type freeList struct {
	mu    sync.Mutex
	bufs  [][]trace.Event
	procs []*incProc
}

// scratches is the pool: the scratch of runs that have ended, for the runs to
// come. It is a plain bounded stack, not a sync.Pool: that one empties on
// every second GC and does not show a Get on one P what was Put on another,
// so what a warm run allocated depended on when the collector last ran and on
// where the goroutine was scheduled (the same op measured anywhere between
// 0.8 and 10.7 MB). Here a run allocates event buffers exactly when no
// earlier run left one large enough. The price is memory the collector cannot
// take back, so it is bounded: maxIdleScratches scratches, each trimmed to
// maxScratchEvents events of capacity, and to the spare windows those could
// fill, when it is put back.
var scratches struct {
	mu   sync.Mutex
	idle []*freeList
}

const (
	maxIdleScratches = 2       // concurrent runs beyond these allocate afresh
	maxScratchEvents = 1 << 20 // 40 MiB of trace.Event
)

func getScratch() *freeList {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	if n := len(scratches.idle); n > 0 {
		sc := scratches.idle[n-1]
		scratches.idle = scratches.idle[:n-1]
		return sc
	}
	return new(freeList)
}

func putScratch(sc *freeList) {
	sc.trim()
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	if len(scratches.idle) < maxIdleScratches {
		scratches.idle = append(scratches.idle, sc)
	}
}

// take removes from the list the smallest buffer with room for n events or,
// when none has, the largest, for the caller to grow; nil when the list is
// empty. It never allocates, so n may be a sidecar's word. Best fit is what
// lets a scratch settle: were a small request handed a large buffer, the
// large request behind it would find only small ones and replace one, run
// after run, in whatever order the workers happened to recycle them.
func (f *freeList) take(n int) []trace.Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.bufs) == 0 {
		return nil
	}
	i, _ := slices.BinarySearchFunc(f.bufs, n, capCompare)
	i = min(i, len(f.bufs)-1)
	buf := f.bufs[i]
	f.bufs = slices.Delete(f.bufs, i, i+1)
	return buf
}

// put hands buf back, emptied; a buffer without capacity is dropped.
func (f *freeList) put(buf []trace.Event) {
	if cap(buf) == 0 {
		return
	}
	f.mu.Lock()
	i, _ := slices.BinarySearchFunc(f.bufs, cap(buf), capCompare)
	f.bufs = slices.Insert(f.bufs, i, buf[:0])
	f.mu.Unlock()
}

func capCompare(buf []trace.Event, n int) int { return cmp.Compare(cap(buf), n) }

// reserve returns buf with room for n more events: buf itself when it has
// the room, else its events moved into a buffer off the list — a new one
// only when that is too small as well — and buf put back.
func (f *freeList) reserve(buf []trace.Event, n int) []trace.Event {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	moved := append(slices.Grow(f.take(len(buf)+n), len(buf)+n), buf...)
	f.put(buf)
	return moved
}

// trim drops the largest buffers until the list holds at most
// maxScratchEvents events of capacity, and the process states past those
// whose spare windows those events could fill at the tail cut's size,
// splitEvents/2 each.
func (f *freeList) trim() {
	f.mu.Lock()
	defer f.mu.Unlock()
	events := 0
	for i, buf := range f.bufs {
		if events += cap(buf); events > maxScratchEvents {
			clear(f.bufs[i:])
			f.bufs = f.bufs[:i]
			break
		}
	}
	windows := 0
	for i, p := range f.procs {
		if windows += len(p.spare); windows > maxScratchEvents/(splitEvents/2) {
			clear(f.procs[i:])
			f.procs = f.procs[:i]
			break
		}
	}
}
