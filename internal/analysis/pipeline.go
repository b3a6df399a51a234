package analysis

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/calib"
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
	// StreamStats and Progress count — or nil: a materialized trace has none.
	reader() *trace.Reader
	index(i int) (*trace.ChunkIndex, error)
	// chunk returns chunk i's events, the count of records read for them
	// and their summed trace.EventBytes. With skipOverhead set the
	// KindOverhead records are read and checked but not returned — what
	// the correction stage would drop never reaches it — and walked still
	// counts them. A chunk file, or with skipOverhead a materialized trace's
	// run, is copied into buf[:0], and the events — buf's array, grown if
	// need be, even when err is set — are then the caller's to rewrite and
	// to keep; otherwise a materialized trace's are returned where they
	// lie, borrowed.
	chunk(i int, buf []trace.Event, skipOverhead bool) (events []trace.Event, walked int, bytes int64, err error)
}

// readerSource decodes the chunk files of a trace directory.
type readerSource struct{ r *trace.Reader }

func (s readerSource) numChunks() int                         { return s.r.NumChunks() }
func (s readerSource) reader() *trace.Reader                  { return s.r }
func (s readerSource) index(i int) (*trace.ChunkIndex, error) { return s.r.Index(i) }

func (s readerSource) chunk(i int, buf []trace.Event, skipOverhead bool) ([]trace.Event, int, int64, error) {
	if skipOverhead {
		return s.r.ReadChunkSkipOverhead(i, buf[:0])
	}
	events, bytes, err := s.r.ReadChunkSized(i, buf[:0])
	return events, len(events), bytes, err
}

// memSource presents a materialized trace: sorted, then offered as
// per-process runs of at most splitEvents events, each indexed the way the
// Writer indexes a chunk — so a window fills to the split size, meets a
// watermark and is cut exactly as it would be streaming from disk.
type memSource struct {
	events []trace.Event
	off    []int   // run i is events[off[i]:off[i+1]]
	bytes  []int64 // and its summed trace.EventBytes bytes[i]
}

func newMemSource(t *trace.Trace) *memSource {
	t.Sort()
	s := &memSource{events: t.Events, off: []int{0}}
	var bytes int64
	for i := 1; i <= len(t.Events); i++ {
		bytes += int64(trace.EventBytes(t.Events[i-1]))
		first := s.off[len(s.off)-1]
		if i == len(t.Events) || t.Events[i].Proc != t.Events[first].Proc || i-first == splitEvents {
			s.off = append(s.off, i)
			s.bytes = append(s.bytes, bytes)
			bytes = 0
		}
	}
	return s
}

func (s *memSource) numChunks() int        { return len(s.off) - 1 }
func (s *memSource) reader() *trace.Reader { return nil }

func (s *memSource) index(i int) (*trace.ChunkIndex, error) {
	return trace.BuildChunkIndex(s.events[s.off[i]:s.off[i+1]], 0), nil
}

func (s *memSource) chunk(i int, buf []trace.Event, skipOverhead bool) ([]trace.Event, int, int64, error) {
	run := s.events[s.off[i]:s.off[i+1]]
	if !skipOverhead {
		return run, len(run), s.bytes[i], nil
	}
	buf = buf[:0]
	var bytes int64
	for _, e := range run {
		if e.Kind != trace.KindOverhead {
			buf = append(buf, e)
			bytes += int64(trace.EventBytes(e))
		}
	}
	return buf, len(run), bytes, nil
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
	// cur is where the stage's searches for the process resume: its events
	// reach route in start order, chunk after chunk.
	cur calib.Cursor
}

// chunkSpan is one (chunk, process) entry of the plan.
type chunkSpan struct {
	w      *procWindow
	events int         // the chunk's event count for the process
	after  vclock.Time // the process's watermark once the chunk is decoded
}

// sweepJob is one closed window on its way to a worker: a buffer holding
// every event that overlaps [lo, hi), possibly among others that lie wholly
// outside it (see window.cut), and the count and summed trace.EventBytes of
// the overlapping ones, which are what the residency estimate holds it at.
type sweepJob struct {
	acc    *overlap.Result
	events []trace.Event
	n      int
	bytes  int64
	lo, hi vclock.Time
}

// pipeline is the state of one batch analysis (see the package comment):
// plan → route → cut → sweep → merge.
type pipeline struct {
	ctx   context.Context
	src   source
	stage *calib.Corrector
	stats StreamStats

	windows map[trace.ProcID]*procWindow
	order   []*procWindow // ascending process: the budget's scan order
	spans   []chunkSpan   // chunk i's entries are spans[spanOff[i]:spanOff[i+1]]
	spanOff []int
	// chunkHint is the largest event count an index claims for a chunk the
	// run decodes: a hint, which picks a chunk buffer and never sizes one.
	chunkHint int

	// spare is the coordinator's chunk buffer: what the next chunk is decoded
	// into, or a materialized run is copied into, without its markers, for
	// the stage to rewrite. Between chunks it holds the last chunk's events,
	// already routed.
	spare []trace.Event
	// cur is the stage's cursor for the processes no window takes.
	cur calib.Cursor

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
	// mu guards the per-process accumulators.
	mu sync.Mutex
}

// run executes the pipeline over src, drawing its event buffers from
// trace.EventBufs and, before it returns, handing back every one it held.
// The returned StreamStats always describe the work done so far, so a
// cancelled or failed run still reports how far it got; results are
// returned only by a run that completed.
func run(ctx context.Context, src source, opts Options) (map[trace.ProcID]*overlap.Result, StreamStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pl := &pipeline{ctx: ctx, src: src, stage: opts.Stage, windows: map[trace.ProcID]*procWindow{}}
	// Deferred, so it runs on every exit path, and after the only goroutines
	// that touch the buffers, the workers, have been joined.
	defer pl.release()
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

// release puts every buffer the run still holds — the coordinator's chunk
// buffer, and the windows a failed run left open — back to the store. Only
// run calls it, once no other goroutine is left.
func (pl *pipeline) release() {
	trace.EventBufs.Put(pl.spare)
	for _, w := range pl.order {
		trace.EventBufs.Put(w.events)
		w.events = nil
	}
}

// plan derives the watermarks of every process in procs (none: all) from
// chunk indexes alone. The correction stage bends the plan the way it bends
// the events: spans are mapped (conservatively) before the watermarks are
// taken from them.
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
		if pl.spanOff[i] < pl.spanOff[i+1] {
			pl.chunkHint = max(pl.chunkHint, ix.Events)
		}
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
// The coordinator decodes every chunk itself, at every worker count.
func (pl *pipeline) stream(opts Options) error {
	n := pl.src.numChunks()
	r := pl.src.reader()
	// A stage drops the overhead markers, so the sources step over them.
	// Decoded chunks are the pipeline's, and so is a materialized run copied
	// without its markers; one lent where it lies is not.
	skip := pl.stage != nil
	owned := r != nil || skip
	for i := 0; i < n; i++ {
		if err := pl.ctx.Err(); err != nil {
			return err
		}
		spans := pl.spans[pl.spanOff[i]:pl.spanOff[i+1]]
		if len(spans) == 0 {
			continue // holds no requested process: never decoded
		}
		// Reserve room for what the chunk can bring, so routing appends
		// never reallocate — and when that takes another buffer, room to
		// reach the split size or the process's end, whichever is nearer,
		// so a window fed a little per chunk does not move per chunk.
		for _, s := range spans {
			if w := s.w; cap(w.events)-len(w.events) < s.events {
				w.events = trace.EventBufs.Reserve(w.events, min(w.left, splitEvents+s.events))
			}
			s.w.left -= s.events
		}
		// After an adoption the spare is the window's old array: trade one
		// too small for a chunk, so the decoder need not replace it.
		if cap(pl.spare) < pl.chunkHint {
			trace.EventBufs.Put(pl.spare)
			pl.spare = trace.EventBufs.Take(pl.chunkHint)
		}
		events, walked, bytes, err := pl.src.chunk(i, pl.spare, skip)
		if owned {
			pl.spare = events
		}
		if err != nil {
			return err
		}
		pl.stats.Events += walked
		pl.route(events, bytes, owned)
		done := 0
		if r != nil {
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

// route takes one chunk into the windows, one run of one process at a time:
// each run through the stage, in place and with its window's cursor, then in
// one bulk append — every event of a process belongs in its one open window:
// the window reaches to MaxTime and its lo is a past watermark, which no
// later event can start before. bytes is the chunk's summed
// trace.EventBytes. An owned chunk is pl.spare's array; when it is all one
// process's and that window is empty, the window takes the array itself and
// leaves its own as the spare.
func (pl *pipeline) route(events []trace.Event, bytes int64, owned bool) {
	pl.chunkEvents, pl.chunkBytes = len(events), bytes
	for rest := events; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].Proc == rest[0].Proc {
			n++
		}
		run := rest[:n]
		rest = rest[n:]
		w := pl.windows[run[0].Proc]
		if pl.stage != nil {
			cur := &pl.cur
			if w != nil {
				cur = &w.cur
			}
			pl.mapRun(run, cur)
		}
		if w == nil {
			continue
		}
		runBytes := bytes
		if n < len(events) {
			runBytes = eventBytes(run)
		}
		if owned && n == len(events) && len(w.events) == 0 {
			w.events, pl.spare = run, w.events
		} else {
			w.events = append(w.events, run...)
		}
		w.bytes += runBytes
		pl.bufferedBytes += runBytes
		pl.bufferedEvents += len(run)
	}
}

// mapRun takes one process's run through the stage in place. The sources
// step over the overhead markers whenever there is a stage, and those are
// the only events it drops, so it keeps every event of the run — and their
// footprint, since correction moves timestamps only.
func (pl *pipeline) mapRun(run []trace.Event, cur *calib.Cursor) {
	for i := range run {
		if !pl.stage.MapEvent(&run[i], cur) {
			panic("analysis: an overhead marker reached the correction stage")
		}
	}
}

// closeWindow cuts w at its watermark and dispatches the closed prefix — the
// window's buffer whole, the survivors moving to one off the store (see
// window.cut); a window no later chunk feeds is complete and goes whole. It
// reports false when the cut was refused.
func (pl *pipeline) closeWindow(w *procWindow, keep int) bool {
	lo, n := w.lo, len(w.events)
	var (
		prefix      []trace.Event
		closed      int
		bytes, kept int64
	)
	if w.watermark == vclock.MaxTime {
		prefix, closed, w.events, bytes = w.events, n, nil, w.bytes
	} else {
		var ok bool
		if prefix, closed, bytes, kept, ok = w.cut(w.watermark, keep, cap(w.events), true); !ok {
			return false
		}
	}
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
	pl.inflightEvents.Add(int64(closed))
	job := sweepJob{acc: w.acc, events: prefix, n: closed, bytes: bytes, lo: lo, hi: w.watermark}
	if pl.jobs == nil {
		pl.sweep(pl.inlineSw, &pl.inlineRes, job)
		return true
	}
	select {
	case pl.jobs <- job:
	case <-pl.ctx.Done(): // dropped: run reports ctx.Err()
		trace.EventBufs.Put(prefix)
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
		pl.sweep(sw, &res, job)
	}
}

// sweep computes one closed window into the worker's private scratch — its
// pooled Sweeper and one reusable Result, so no per-window Result ever
// reaches the heap — and merges it into its process's accumulator
// (commutative integer sums plus span extremes, so completion order cannot
// leak into results), then recycles the window's buffer. Once ctx is
// cancelled only the recycling is left.
func (pl *pipeline) sweep(sw *overlap.Sweeper, res *overlap.Result, job sweepJob) {
	if pl.ctx.Err() == nil {
		sw.ComputeWindowInto(res, job.events, job.lo, job.hi)
		pl.mu.Lock()
		MergeResult(job.acc, res)
		pl.mu.Unlock()
	}
	trace.EventBufs.Put(job.events)
	pl.inflightBytes.Add(-job.bytes)
	pl.inflightEvents.Add(-int64(job.n))
}

// sample folds the current residency estimate — open windows, the chunk
// being decoded, closed windows in flight — into the peaks.
func (pl *pipeline) sample() {
	bytes := pl.bufferedBytes + pl.chunkBytes + pl.inflightBytes.Load()
	events := pl.bufferedEvents + pl.chunkEvents + int(pl.inflightEvents.Load())
	pl.stats.PeakResidentBytes = max(pl.stats.PeakResidentBytes, bytes)
	pl.stats.PeakResidentEvents = max(pl.stats.PeakResidentEvents, events)
}
