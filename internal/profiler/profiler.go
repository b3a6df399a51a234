// Package profiler implements the RL-Scope profiler core: high-level
// algorithmic annotations (paper §3.1), transparent event interception
// (§3.2), and the book-keeping cost model that calibration measures and
// correction subtracts (§3.4).
//
// A Profiler owns one run. Each simulated process in the run gets a Session,
// which is the process-local recording context: it owns the process's
// virtual clock, buffers its events, and implements the hook surface that
// the simulated CUDA runtime and the interception wrappers call into.
//
// # Overhead model
//
// When a book-keeping feature is enabled, every occurrence of that
// book-keeping advances the process clock by a hidden, stochastic duration —
// this is the profiling overhead the paper corrects for. The profiler
// records only a zero-width marker saying "book-keeping of kind K happened
// here"; it does not know its own true cost, exactly like the real system.
// Calibration (internal/calib) estimates mean costs from repeated runs and
// correction subtracts mean×count at the marked points.
//
// # A note on uninstrumented runs
//
// In the real system an uninstrumented run produces no trace, only a total
// runtime. In this simulation events are always collected (collection itself
// is free; only modelled book-keeping costs inflate the clock), which gives
// tests access to ground truth. Calibration code restricts itself to the
// information the paper's calibration would have: total runtimes, counts,
// and per-API durations measured under interception.
package profiler

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cuda"
	"repro/internal/recycle"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// OverheadModel is the hidden true cost of each book-keeping path. The
// defaults are modelled on the magnitudes the paper reports (per-event
// microsecond-scale costs that accumulate into up to 90% runtime inflation
// for transition-heavy workloads).
type OverheadModel struct {
	// Annotation is the cost of recording one operation start or end.
	Annotation vclock.Dist
	// Interception is the cost of one Python↔native crossing hook.
	Interception vclock.Dist
	// CUDAIntercept is the cost of librlscope's hook around one CUDA API
	// call.
	CUDAIntercept vclock.Dist
	// CUPTI is the per-API inflation inside the CUDA library when CUPTI
	// activity collection is on.
	CUPTI map[string]vclock.Dist
}

// DefaultOverheads returns the standard overhead model. Python-level hooks
// are genuinely expensive (interpreted wrapper frames around every
// transition), which is what drives the paper's up-to-90% CPU-time
// inflation before correction.
func DefaultOverheads() OverheadModel {
	return OverheadModel{
		Annotation:    vclock.Jittered(3*vclock.Microsecond, 0.3),
		Interception:  vclock.Jittered(6*vclock.Microsecond, 0.3),
		CUDAIntercept: vclock.Jittered(3*vclock.Microsecond, 0.3),
		CUPTI:         cuda.CUPTIInflation(),
	}
}

// Options configures a Profiler run.
type Options struct {
	// Workload labels the run in trace metadata.
	Workload string
	// Host names the machine this run records on (trace.Meta.Host).
	Host string
	// Flags selects which book-keeping paths are enabled.
	Flags trace.FeatureFlags
	// Overheads is the hidden true cost model; zero value uses defaults.
	Overheads OverheadModel
	// Seed drives all stochastic costs in the run.
	Seed int64
}

// Profiler owns one profiled run across one or more simulated processes. A
// write, or Release, ends the run, handing its event blocks back to
// trace.EventBufs.
type Profiler struct {
	opts Options

	mu       sync.Mutex
	sessions []*Session
	nextProc trace.ProcID
	written  bool
}

// ErrWritten is what reading a run returns once a write or Release has
// ended it.
var ErrWritten = errors.New("profiler: run already written; its events are gone")

// New creates a profiler for one run.
func New(opts Options) *Profiler {
	if opts.Overheads.Annotation.Mean == 0 && opts.Overheads.Interception.Mean == 0 &&
		opts.Overheads.CUDAIntercept.Mean == 0 && opts.Overheads.CUPTI == nil {
		opts.Overheads = DefaultOverheads()
	}
	return &Profiler{opts: opts}
}

// Flags returns the run's feature flags.
func (p *Profiler) Flags() trace.FeatureFlags { return p.opts.Flags }

// NewProcess creates the recording session for one simulated process.
// parent is the forking process's ID, or -1 for the root. The new process's
// clock starts at the given time (fork semantics: the child inherits the
// parent's current time).
func (p *Profiler) NewProcess(name string, parent trace.ProcID, start vclock.Time) *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextProc
	p.nextProc++
	s := &Session{
		prof:      p,
		proc:      id,
		name:      name,
		parent:    parent,
		clock:     vclock.NewAt(start, p.opts.Seed+int64(id)*7919),
		events:    recycle.BlockList[trace.Event]{Min: minBlockEvents, Max: blockEvents, Store: &trace.EventBufs},
		rootStart: start,
		ovrng:     rand.New(rand.NewSource(p.opts.Seed + 104729 + int64(id)*7919)),
	}
	p.sessions = append(p.sessions, s)
	return s
}

// sortedSessions checks that the run is unwritten and every session closed,
// starts the ordering of any whose events no ordering covers yet (Close has
// started the rest), and returns the sessions with the run's metadata. The
// slice is p.sessions itself, capped: NewProcess only ever appends past it.
// Readers wait for each session's order in turn (Session.sortedEvents).
func (p *Profiler) sortedSessions() ([]*Session, trace.Meta, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.written {
		return nil, trace.Meta{}, ErrWritten
	}
	meta := trace.Meta{
		Workload: p.opts.Workload,
		Host:     p.opts.Host,
		Config:   p.opts.Flags,
		Procs:    make(map[trace.ProcID]trace.ProcInfo, len(p.sessions)),
	}
	for _, s := range p.sessions {
		if !s.closed {
			return nil, meta, fmt.Errorf("profiler: session %q (proc %d) not closed", s.name, s.proc)
		}
		s.startOrder()
		meta.Procs[s.proc] = trace.ProcInfo{Name: s.name, Parent: s.parent}
	}
	return p.sessions[:len(p.sessions):len(p.sessions)], meta, nil
}

// Trace assembles the full run trace across all sessions. Sessions must be
// closed first. The returned trace is the caller's: its events are gathered
// out of the sessions' blocks into one exact-size slice.
func (p *Profiler) Trace() (*trace.Trace, error) {
	sessions, meta, err := p.sortedSessions()
	if err != nil {
		return nil, err
	}
	n := 0
	for _, s := range sessions {
		n += len(s.sortedEvents().keys)
	}
	t := &trace.Trace{Meta: meta, Events: make([]trace.Event, 0, n)}
	for _, s := range sessions {
		v := s.sortedEvents()
		t.Events = v.gather(t.Events, v.keys)
	}
	// Sessions are created in ProcID order and each is sorted, so this is
	// the O(n) check.
	t.Sort()
	return t, nil
}

// MustTrace is Trace but panics on error; used by experiment harnesses where
// an unclosed session is a programming bug.
func (p *Profiler) MustTrace() *trace.Trace {
	t, err := p.Trace()
	if err != nil {
		panic(err)
	}
	return t
}

// WriteTo persists the run's trace to dir with the chunked asynchronous trace
// writer (paper Appendix A.1) and ends the run; sessions must be closed first.
func (p *Profiler) WriteTo(dir string) error {
	sorted, meta, err := p.sortedSessions()
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(dir, 0)
	if err != nil {
		return err
	}
	return p.writeSessions(w, sorted, meta)
}

// WriteToSink persists the run's trace through an arbitrary chunk sink —
// the same chunked delivery as WriteTo, but with the destination abstracted
// so a workload can stream its trace over HTTP into a live rlscope-serve
// store (client.Sink) instead of writing a local directory. Sessions must
// be closed first, and the write ends the run as WriteTo's does.
func (p *Profiler) WriteToSink(sink trace.Sink) error {
	sorted, meta, err := p.sortedSessions()
	if err != nil {
		return err
	}
	return p.writeSessions(trace.NewSinkWriter(sink, 0), sorted, meta)
}

// stageEvents is how many events writeSessions gathers per Append call.
const stageEvents = 1024

// writeSessions feeds the sessions' events to w in order — the event
// sequence of Trace() without assembling it. It waits for each session's
// order only when it reaches it, so a session still being ordered does not
// hold up the ones before it. Each session's events are gathered out of its
// blocks a stage at a time, and the Writer copies each stage on into its
// chunk buffer. Then it ends the run, failed or not: the blocks, read only
// here and after each ordering finished, go back to trace.EventBufs.
func (p *Profiler) writeSessions(w *trace.Writer, sessions []*Session, meta trace.Meta) error {
	var stage [stageEvents]trace.Event
	for _, s := range sessions {
		v := s.sortedEvents()
		for keys := v.keys; len(keys) > 0; {
			k := keys[:min(len(keys), stageEvents)]
			w.Append(v.gather(stage[:0], k)...)
			keys = keys[len(k):]
		}
	}
	err := w.Close(meta)
	p.end(sessions)
	return err
}

// Release ends a run that is only traced, never written, the way a write
// ends it: the event blocks go back to trace.EventBufs, and a later Trace,
// WriteTo, WriteToSink or Release returns ErrWritten. Take every Trace
// first, and call it on no goroutine that reads the run at the same time.
// Sessions must be closed: an unclosed one is an error that releases
// nothing and leaves the run as it was.
func (p *Profiler) Release() error {
	sessions, _, err := p.sortedSessions()
	if err != nil {
		return err
	}
	for _, s := range sessions {
		s.sortedEvents() // the ordering reads the blocks: wait for it to finish
	}
	p.end(sessions)
	return nil
}

// end marks the run written and hands the sessions' blocks back, each of
// whose orderings has finished.
func (p *Profiler) end(sessions []*Session) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.written = true
	for _, s := range sessions {
		s.events.Release()
	}
}

// OverheadCounts sums book-keeping occurrence counts across sessions —
// the denominators for delta calibration.
func (p *Profiler) OverheadCounts() map[trace.OverheadKind]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[trace.OverheadKind]int{}
	for _, s := range p.sessions {
		for k, n := range s.counts {
			if n > 0 {
				out[trace.OverheadKind(k)] += n
			}
		}
	}
	return out
}

// TotalTime returns the maximum clock time across sessions — the run's
// total training time as a wall-clock observer would see it.
func (p *Profiler) TotalTime() vclock.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var end vclock.Time
	for _, s := range p.sessions {
		if t := s.clock.Now(); t > end {
			end = t
		}
	}
	return vclock.Duration(end)
}
