package analysis

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// source presents a trace to the pipeline as numbered chunks: a
// sidecar-shaped index per chunk to plan from, and the chunk's events in
// storage order. Chunk boundaries carry no meaning beyond being the points
// at which watermarks advance.
type source interface {
	numChunks() int
	// reader returns the Reader whose chunk files the chunks are — which
	// StreamStats and Progress count, and which a run with a worker pool
	// reads through the decode-ahead stage instead of each — or nil: a
	// materialized trace has none.
	reader() *trace.Reader
	index(i int) (*trace.ChunkIndex, error)
	each(i int, yield func(int, trace.Event) bool) error
}

// readerSource streams the chunk files of a trace directory inline, for a
// run without a worker pool: v2 chunks are swept straight off their columns
// (each event is built on the stack, no []Event is materialized), v1 chunks
// decode into one reused buffer.
type readerSource struct {
	r   *trace.Reader
	buf []trace.Event
}

func (s *readerSource) numChunks() int                         { return s.r.NumChunks() }
func (s *readerSource) reader() *trace.Reader                  { return s.r }
func (s *readerSource) index(i int) (*trace.ChunkIndex, error) { return s.r.Index(i) }

func (s *readerSource) each(i int, yield func(int, trace.Event) bool) error {
	cc, columnar, err := s.r.ReadColumns(i)
	if err != nil {
		return err
	}
	if columnar {
		if err := cc.Events(yield); err != nil {
			return &trace.ChunkError{Dir: s.r.Dir(), Chunk: s.r.ChunkName(i), Err: err}
		}
		return nil
	}
	if s.buf, err = s.r.ReadChunk(i, s.buf[:0]); err != nil {
		return err
	}
	for j := range s.buf {
		yield(j, s.buf[j])
	}
	return nil
}

// memSource presents a materialized trace: sorted, then offered as
// per-process runs of at most splitEvents events, each indexed the way the
// Writer indexes a chunk — so a window fills to the split size, meets a
// watermark and is cut exactly as it would be streaming from disk.
type memSource struct {
	events []trace.Event
	off    []int // run i is events[off[i]:off[i+1]]
}

func newMemSource(t *trace.Trace) *memSource {
	t.Sort()
	s := &memSource{events: t.Events, off: []int{0}}
	for i := 1; i <= len(t.Events); i++ {
		first := s.off[len(s.off)-1]
		if i == len(t.Events) || t.Events[i].Proc != t.Events[first].Proc || i-first == splitEvents {
			s.off = append(s.off, i)
		}
	}
	return s
}

func (s *memSource) numChunks() int        { return len(s.off) - 1 }
func (s *memSource) reader() *trace.Reader { return nil }

func (s *memSource) index(i int) (*trace.ChunkIndex, error) {
	return trace.BuildChunkIndex(s.events[s.off[i]:s.off[i+1]], 0), nil
}

func (s *memSource) each(i int, yield func(int, trace.Event) bool) error {
	for j, e := range s.events[s.off[i]:s.off[i+1]] {
		yield(j, e)
	}
	return nil
}

// procWindow is the one open window of a process plus what the pipeline
// needs to route into it and to close its prefixes.
type procWindow struct {
	window
	proc  trace.ProcID
	left  int   // events the chunks not yet decoded hold for the process
	bytes int64 // estimated footprint of events
	// watermark is the minimum (stage-mapped) start over the chunks not yet
	// decoded that hold the process, MaxTime once none is left: no future
	// event can begin before it, so the prefix [lo, watermark) is complete.
	watermark vclock.Time
	// acc is the merge of the process's closed windows; nil until the
	// first is dispatched.
	acc *overlap.Result
}

// chunkSpan is one (chunk, process) entry of the plan.
type chunkSpan struct {
	w      *procWindow
	events int         // the chunk's event count for the process
	after  vclock.Time // the process's watermark once the chunk is decoded
}

// sweepJob is one closed window on its way to a worker.
type sweepJob struct {
	acc    *overlap.Result
	events []trace.Event
	bytes  int64
	lo, hi vclock.Time
}

// pipeline is the state of one batch analysis (see the package comment):
// plan → route → cut → sweep → merge.
type pipeline struct {
	ctx    context.Context
	src    source
	stage  EventStage
	staged trace.Event // the one addressable event MapEvent ever sees
	stats  StreamStats

	windows map[trace.ProcID]*procWindow
	order   []*procWindow // ascending process: the budget's scan order
	spans   []chunkSpan   // chunk i's entries are spans[spanOff[i]:spanOff[i+1]]
	spanOff []int
	// Events arrive in runs of one process, so route looks a window up once
	// per run: last is windows[lastProc] while routed is set.
	last     *procWindow
	lastProc trace.ProcID
	routed   bool

	// ahead is the decode-ahead stage, with a worker pool over chunk files;
	// nil otherwise: the coordinator decodes inline.
	ahead *decodeAhead

	// The coordinator's side of the residency estimate: events buffered in
	// open windows, and the chunk being decoded.
	bufferedBytes, chunkBytes   int64
	bufferedEvents, chunkEvents int
	// The workers' side: closed windows not yet swept.
	inflightBytes, inflightEvents atomic.Int64

	// A pool of one sweeps inline on the coordinator: no goroutines, no
	// channel, strictly sequential.
	jobs      chan sweepJob
	wg        sync.WaitGroup
	inlineSw  *overlap.Sweeper
	inlineRes overlap.Result
	// mu guards the per-process accumulators and the free list of event
	// buffers that closed windows recycle through.
	mu   sync.Mutex
	free [][]trace.Event
}

// run executes the pipeline over src. The returned StreamStats always
// describe the work done so far, so a cancelled or failed run still reports
// how far it got; results are returned only by a run that completed.
func run(ctx context.Context, src source, opts Options) (map[trace.ProcID]*overlap.Result, StreamStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pl := &pipeline{ctx: ctx, src: src, stage: opts.Stage, windows: map[trace.ProcID]*procWindow{}}
	if src.reader() != nil {
		pl.stats.Chunks = src.numChunks()
	}
	if err := ctx.Err(); err != nil {
		return nil, pl.stats, err
	}
	if err := pl.plan(opts.Procs); err != nil {
		return nil, pl.stats, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > 1 {
		pl.jobs = make(chan sweepJob, workers)
		pl.wg.Add(workers)
		for w := 0; w < workers; w++ {
			go pl.work()
		}
	} else {
		pl.inlineSw = overlap.GetSweeper()
		defer overlap.PutSweeper(pl.inlineSw)
	}
	err := pl.stream(opts)
	if pl.jobs != nil {
		close(pl.jobs)
		pl.wg.Wait()
	}
	// A cancellation that lands after the chunk loop can still have made
	// the workers drop queued sweeps; results would be silently incomplete,
	// so a cancelled run always reports its context error.
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, pl.stats, err
	}
	// A process has a result exactly when an event reached its window: a
	// stage can drop every event of a process (correction erases processes
	// that recorded nothing but overhead markers).
	out := make(map[trace.ProcID]*overlap.Result, len(pl.order))
	for _, w := range pl.order {
		if w.acc != nil {
			out[w.proc] = w.acc
		}
	}
	return out, pl.stats, nil
}

// plan derives the watermarks of every process in procs (none: all) from
// chunk indexes alone. An EventStage bends the plan the way it bends the
// events: spans are mapped (conservatively) before the watermarks are taken
// from them.
func (pl *pipeline) plan(procs []trace.ProcID) error {
	n := pl.src.numChunks()
	pl.spanOff = make([]int, n+1)
	for i := 0; i < n; i++ {
		ix, err := pl.src.index(i)
		if err != nil {
			return err
		}
		for p, sp := range ix.Procs {
			if len(procs) > 0 && !slices.Contains(procs, p) {
				continue
			}
			if pl.stage != nil {
				sp = pl.stage.MapSpan(p, sp)
			}
			w := pl.windows[p]
			if w == nil {
				w = &procWindow{
					window: window{lo: vclock.MinTime, hi: vclock.MaxTime},
					proc:   p, watermark: vclock.MaxTime,
				}
				pl.windows[p] = w
				pl.order = append(pl.order, w)
			}
			w.left += sp.Events
			pl.spans = append(pl.spans, chunkSpan{w: w, events: sp.Events, after: sp.MinStart})
		}
		pl.spanOff[i+1] = len(pl.spans)
	}
	// Suffix-min, last chunk first: each entry trades the MinStart it was
	// stashed with for the minimum over the process's later chunks.
	for i := len(pl.spans) - 1; i >= 0; i-- {
		s := &pl.spans[i]
		s.after, s.w.watermark = s.w.watermark, min(s.w.watermark, s.after)
	}
	slices.SortFunc(pl.order, func(a, b *procWindow) int { return cmp.Compare(a.proc, b.proc) })
	return nil
}

// stream is the chunk loop: decode, route, then close what can be closed.
// With a worker pool, decoding chunk files is the decode-ahead stage's: the
// plan is complete, so the Reader is its goroutine's until the loop ends.
func (pl *pipeline) stream(opts Options) error {
	route := pl.route // one method value for the run, not one per chunk
	n := pl.src.numChunks()
	if r := pl.src.reader(); r != nil && pl.jobs != nil {
		chunks := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if pl.spanOff[i] < pl.spanOff[i+1] {
				chunks = append(chunks, i)
			}
		}
		pl.ahead = startDecodeAhead(r, chunks)
		defer pl.ahead.close()
	}
	for i := 0; i < n; i++ {
		if err := pl.ctx.Err(); err != nil {
			return err
		}
		spans := pl.spans[pl.spanOff[i]:pl.spanOff[i+1]]
		if len(spans) == 0 {
			continue // holds no requested process: never decoded
		}
		// Reserve room for what the chunk can bring, so routing appends
		// never reallocate — and when that takes a new buffer, room to
		// reach the split size or the process's end, whichever is nearer,
		// so a window fed a little per chunk does not regrow per chunk.
		for _, s := range spans {
			if w := s.w; cap(w.events)-len(w.events) < s.events {
				w.events = slices.Grow(w.events, min(w.left, splitEvents+s.events))
			}
			s.w.left -= s.events
		}
		if pl.ahead != nil {
			events, err := pl.ahead.next()
			if err != nil {
				return err
			}
			for j := range events {
				pl.route(j, events[j])
			}
		} else if err := pl.src.each(i, route); err != nil {
			return err
		}
		done := 0
		if pl.src.reader() != nil {
			pl.stats.ChunksDecoded++
			done = i + 1
		}
		pl.sample()
		pl.chunkBytes, pl.chunkEvents = 0, 0
		for _, s := range spans {
			w := s.w
			w.watermark = s.after
			if n := len(w.events); n > 0 && (s.after == vclock.MaxTime || n >= max(splitEvents, w.retry)) {
				pl.closeWindow(w, n/4*3)
			}
		}
		// Over budget, the same cut with a lower threshold: any window, and
		// any prefix that frees at least one event — in fixed process
		// order, so one worker's schedule is reproducible. The in-flight
		// side of the total drains at worker speed.
		if budget := opts.MaxResidentBytes; budget > 0 {
			for _, w := range pl.order {
				if pl.bufferedBytes+pl.inflightBytes.Load() <= budget {
					break
				}
				if n := len(w.events); n > 0 && pl.closeWindow(w, n-1) {
					pl.stats.Evictions++
				}
			}
		}
		pl.sample()
		if opts.Progress != nil {
			opts.Progress(Progress{
				Stage: StageAnalyze, ChunksDone: done, Chunks: pl.stats.Chunks,
				Shards: pl.stats.Shards, Events: pl.stats.Events,
			})
		}
	}
	return nil
}

// route maps one decoded event through the stage and appends it to its
// process's open window. Every event of a process belongs there: the window
// reaches to MaxTime and its lo is a past watermark, which no later event
// can start before.
func (pl *pipeline) route(_ int, e trace.Event) bool {
	pl.stats.Events++
	if pl.stage != nil {
		// MapEvent needs an addressable event, and &e would move every
		// decoded event to the heap.
		pl.staged = e
		if !pl.stage.MapEvent(&pl.staged) {
			return true
		}
		e = pl.staged
	}
	eb := int64(trace.EventBytes(e))
	pl.chunkEvents++
	pl.chunkBytes += eb
	if !pl.routed || e.Proc != pl.lastProc {
		pl.last, pl.lastProc, pl.routed = pl.windows[e.Proc], e.Proc, true
	}
	if w := pl.last; w != nil {
		w.events = append(w.events, e)
		w.bytes += eb
		pl.bufferedBytes += eb
		pl.bufferedEvents++
	}
	return true
}

// closeWindow cuts w at its watermark and dispatches the closed prefix,
// carrying the survivors; a window no later chunk feeds is complete and goes
// whole. It reports false when the cut was refused (see window.cut).
func (pl *pipeline) closeWindow(w *procWindow, keep int) bool {
	lo, n := w.lo, len(w.events)
	var prefix []trace.Event
	if w.watermark == vclock.MaxTime {
		prefix, w.events = w.events, nil
	} else {
		var ok bool
		if prefix, ok = w.cut(w.watermark, keep, pl.buffer()); !ok {
			pl.recycle(prefix)
			return false
		}
	}
	kept, bytes := eventBytes(w.events), eventBytes(prefix)
	pl.bufferedBytes += kept - w.bytes
	pl.bufferedEvents += len(w.events) - n
	w.bytes = kept
	if w.acc == nil {
		w.acc = &overlap.Result{
			ByKey:       map[overlap.Key]vclock.Duration{},
			Transitions: map[overlap.TransitionKey]int{},
		}
	}
	pl.stats.Shards++
	pl.inflightBytes.Add(bytes)
	pl.inflightEvents.Add(int64(len(prefix)))
	job := sweepJob{acc: w.acc, events: prefix, bytes: bytes, lo: lo, hi: w.watermark}
	if pl.jobs == nil {
		if pl.ctx.Err() == nil {
			pl.sweep(pl.inlineSw, &pl.inlineRes, job)
		}
		return true
	}
	select {
	case pl.jobs <- job:
	case <-pl.ctx.Done(): // dropped: run reports ctx.Err()
	}
	return true
}

func eventBytes(events []trace.Event) (n int64) {
	for _, e := range events {
		n += int64(trace.EventBytes(e))
	}
	return n
}

// work is one pool worker. Once ctx is cancelled queued jobs are drained
// unexecuted, so the join in run never waits on a sweep nobody wants.
func (pl *pipeline) work() {
	defer pl.wg.Done()
	sw := overlap.GetSweeper()
	defer overlap.PutSweeper(sw)
	var res overlap.Result
	for job := range pl.jobs {
		if pl.ctx.Err() == nil {
			pl.sweep(sw, &res, job)
		}
	}
}

// sweep computes one closed window into the worker's private scratch — its
// pooled Sweeper and one reusable Result, so no per-window Result ever
// reaches the heap — and merges it into its process's accumulator
// (commutative integer sums plus span extremes, so completion order cannot
// leak into results), then recycles the window's buffer.
func (pl *pipeline) sweep(sw *overlap.Sweeper, res *overlap.Result, job sweepJob) {
	sw.ComputeWindowInto(res, job.events, job.lo, job.hi)
	pl.mu.Lock()
	MergeResult(job.acc, res)
	pl.mu.Unlock()
	pl.recycle(job.events)
	pl.inflightBytes.Add(-job.bytes)
	pl.inflightEvents.Add(-int64(len(job.events)))
}

// buffer takes an event buffer off the run's free list (nil when empty):
// more, smaller windows must not mean more allocations.
func (pl *pipeline) buffer() []trace.Event {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if n := len(pl.free); n > 0 {
		buf := pl.free[n-1]
		pl.free = pl.free[:n-1]
		return buf
	}
	return nil
}

func (pl *pipeline) recycle(buf []trace.Event) {
	pl.mu.Lock()
	pl.free = append(pl.free, buf[:0])
	pl.mu.Unlock()
}

// sample folds the current residency estimate — open windows, the chunk
// being decoded, the chunk decoded ahead of it, closed windows in flight —
// into the peaks.
func (pl *pipeline) sample() {
	bytes := pl.bufferedBytes + pl.chunkBytes + pl.inflightBytes.Load()
	events := pl.bufferedEvents + pl.chunkEvents + int(pl.inflightEvents.Load())
	if pl.ahead != nil {
		bytes += pl.ahead.waitingBytes.Load()
		events += int(pl.ahead.waitingEvents.Load())
	}
	pl.stats.PeakResidentBytes = max(pl.stats.PeakResidentBytes, bytes)
	pl.stats.PeakResidentEvents = max(pl.stats.PeakResidentEvents, events)
}
