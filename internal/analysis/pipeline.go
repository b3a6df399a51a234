package analysis

import (
	"cmp"
	"context"
	"math"
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
	// KindOverhead records are read and checked but not returned — no sweep
	// reads one, and the correction stage drops them — and walked still
	// counts them. A chunk file, or with skipOverhead a materialized trace's
	// run, is copied into buf[:0] — or, when buf lacks the room, into a
	// buffer trace.EventBufs.Reserve trades it for — and the events, even
	// when err is set, are then the caller's to rewrite and to keep;
	// otherwise a materialized trace's are returned where they lie,
	// borrowed.
	chunk(i int, buf []trace.Event, skipOverhead bool) (events []trace.Event, walked int, bytes int64, err error)
}

// minEventBytes is the smallest event record a chunk file can hold, the v1
// record (trace's v1MinEventBytes): a chunk of n bytes is sized for at most
// n/minEventBytes events. A v2 chunk can pack more; its window then grows
// by append.
const minEventBytes = 7

// readerSource decodes the chunk files of a trace directory.
type readerSource struct{ r *trace.Reader }

func (s readerSource) numChunks() int                         { return s.r.NumChunks() }
func (s readerSource) reader() *trace.Reader                  { return s.r }
func (s readerSource) index(i int) (*trace.ChunkIndex, error) { return s.r.Index(i) }

func (s readerSource) chunk(i int, buf []trace.Event, skipOverhead bool) ([]trace.Event, int, int64, error) {
	if skipOverhead {
		return s.r.ReadChunkSkipOverhead(i, buf[:0], &trace.EventBufs)
	}
	events, bytes, err := s.r.ReadChunkSized(i, buf[:0], &trace.EventBufs)
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
	buf = trace.EventBufs.Reserve(buf[:0], len(run))
	var bytes int64
	for _, e := range run {
		if e.Kind != trace.KindOverhead {
			buf = append(buf, e)
			bytes += int64(trace.EventBytes(e))
		}
	}
	return buf, len(run), bytes, nil
}

// chunkSpan is one (chunk, process) entry of the plan.
type chunkSpan struct {
	p      *procState
	events int         // the chunk's event count for the process
	after  vclock.Time // the process's watermark once the chunk is decoded
}

// sweepJob is one closed window on its way to a worker — its buffer holds
// every event that overlaps it, possibly among others that lie wholly
// outside it (see window.cut) — with its process's accumulator, and the
// count and summed trace.EventBytes of the overlapping events, which are
// what the residency estimate holds it at.
type sweepJob struct {
	w     window
	acc   *overlap.Result
	n     int
	bytes int64
}

// pipeline is the state of one batch analysis (see the package comment):
// plan → route → cut → sweep → merge.
type pipeline struct {
	ctx   context.Context
	src   source
	stage *calib.Corrector
	stats StreamStats

	procs   map[trace.ProcID]*procState // each with the once bit
	order   []*procState                // ascending process: the budget's scan order
	spans   []chunkSpan                 // chunk i's entries are spans[spanOff[i]:spanOff[i+1]]
	spanOff []int
	// spare is the coordinator's chunk buffer: what the next chunk is decoded
	// into, or a materialized run is copied into for the stage to rewrite,
	// without its markers either way, traded at the decode for a larger one off
	// trace.EventBufs when the chunk does not fit. Between chunks it holds
	// the last chunk's events, already routed.
	spare []trace.Event

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
	pl := &pipeline{ctx: ctx, src: src, stage: opts.Stage, procs: map[trace.ProcID]*procState{}}
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
	// Correction erases a process that recorded nothing but overhead
	// markers, so under a stage a process has a result exactly when an event
	// reached its window. Without one every planned process has a result,
	// whether its markers were read or stepped over: no sweep reads a
	// marker, so a window of them sweeps to the empty result.
	out := make(map[trace.ProcID]*overlap.Result, len(pl.order))
	for _, p := range pl.order {
		if p.acc == nil && pl.stage == nil {
			p.acc = newResult()
		}
		if p.acc != nil {
			out[p.proc] = p.acc
		}
	}
	return out, pl.stats, nil
}

// release puts every buffer the run still holds — the coordinator's chunk
// buffer, and the windows a failed run left open — back to the store. Only
// run calls it, once no other goroutine is left.
func (pl *pipeline) release() {
	trace.EventBufs.Put(pl.spare)
	for _, p := range pl.order {
		trace.EventBufs.Put(p.events)
		p.events = nil
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
			ps := pl.procs[p]
			if ps == nil {
				ps = &procState{
					window: window{lo: vclock.MinTime, hi: vclock.MaxTime},
					once:   true, proc: p, watermark: vclock.MaxTime,
				}
				pl.procs[p] = ps
				pl.order = append(pl.order, ps)
			}
			// A sidecar's count sizes the windows' buffers, so it is capped
			// at what the chunk file could encode, and the sum saturates. A
			// materialized run's count is exact.
			events := sp.Events
			if pl.src.reader() != nil {
				events = max(0, min(events, int(ix.Bytes/minEventBytes)))
			}
			ps.left += min(events, math.MaxInt-ps.left)
			pl.spans = append(pl.spans, chunkSpan{p: ps, events: events, after: sp.MinStart})
		}
		pl.spanOff[i+1] = len(pl.spans)
	}
	// Suffix-min, last chunk first: each entry trades the MinStart it was
	// stashed with for the minimum over the process's later chunks.
	for i := len(pl.spans) - 1; i >= 0; i-- {
		s := &pl.spans[i]
		s.after, s.p.watermark = s.p.watermark, min(s.p.watermark, s.after)
	}
	slices.SortFunc(pl.order, func(a, b *procState) int { return cmp.Compare(a.proc, b.proc) })
	return nil
}

// stream is the chunk loop: decode, route, then close what can be closed.
// The coordinator decodes every chunk itself, at every worker count.
func (pl *pipeline) stream(opts Options) error {
	n := pl.src.numChunks()
	r := pl.src.reader()
	// No sweep reads an overhead marker and a stage drops them, so a chunk
	// file is read without them, and so is a materialized run the stage
	// rewrites. Decoded chunks are the pipeline's, and so is such a copy; a
	// materialized run without a stage is lent where it lies, markers and
	// all, and is not.
	owned := r != nil || pl.stage != nil
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
			if p := s.p; cap(p.events)-len(p.events) < s.events {
				p.events = trace.EventBufs.Reserve(p.events, min(p.left, splitEvents+s.events))
			}
			s.p.left -= s.events
		}
		events, walked, bytes, err := pl.src.chunk(i, pl.spare, owned)
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
			p := s.p
			p.watermark = s.after
			if n := len(p.events); n > 0 && (s.after == vclock.MaxTime || n >= max(splitEvents, p.retry)) {
				pl.closeWindow(p, n/4*3)
			}
		}
		// Over budget, the same cut with a lower threshold: any window, and
		// any prefix that frees at least one event — in fixed process
		// order, so one worker's schedule is reproducible. The in-flight
		// side of the total drains at worker speed.
		if budget := opts.MaxResidentBytes; budget > 0 {
			for _, p := range pl.order {
				if pl.bufferedBytes+pl.inflightBytes.Load() <= budget {
					break
				}
				if n := len(p.events); n > 0 && pl.closeWindow(p, n-1) {
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

// route takes one chunk into the tails, one run of one process at a time:
// each run through the stage, in place and with its process's cursor, then
// in one bulk append — every event of a process belongs in its tail, the
// only window a batch run keeps open: its lo is a past watermark, which no
// later event can start before. bytes is the chunk's summed
// trace.EventBytes. An owned chunk is pl.spare's array; when it is all one
// process's and that tail is empty, the tail takes the array itself and
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
		p := pl.procs[run[0].Proc]
		if p == nil {
			continue // a process the run does not ask for
		}
		if pl.stage != nil {
			pl.mapRun(run, &p.cur)
		}
		runBytes := bytes
		if n < len(events) {
			runBytes = eventBytes(run)
		}
		if owned && n == len(events) && len(p.events) == 0 {
			p.events, pl.spare = run, p.events
		} else {
			p.events = append(p.events, run...)
		}
		p.bytes += runBytes
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

// closeWindow closes p's tail at its watermark (see procState.split) and
// dispatches the closed window; a tail no later chunk feeds is complete and
// goes whole. It reports false when the cut was refused.
func (pl *pipeline) closeWindow(p *procState, keep int) bool {
	n := len(p.events)
	var (
		job  sweepJob
		kept int64
		ok   bool
	)
	if p.watermark == vclock.MaxTime {
		job, p.events = sweepJob{w: p.window, n: n, bytes: p.bytes}, nil
	} else if job.w, job.n, job.bytes, kept, ok = p.split(len(p.closed), p.watermark, keep, cap(p.events), true); !ok {
		return false
	}
	pl.bufferedBytes += kept - p.bytes
	pl.bufferedEvents += len(p.events) - n
	p.bytes = kept
	if p.acc == nil {
		p.acc = newResult()
	}
	job.acc = p.acc
	pl.stats.Shards++
	pl.inflightBytes.Add(job.bytes)
	pl.inflightEvents.Add(int64(job.n))
	if pl.jobs == nil {
		pl.sweep(pl.inlineSw, &pl.inlineRes, job)
		return true
	}
	select {
	case pl.jobs <- job:
	case <-pl.ctx.Done(): // dropped: run reports ctx.Err()
		trace.EventBufs.Put(job.w.events)
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
		job.w.sweep(sw, res, job.acc, &pl.mu)
	}
	trace.EventBufs.Put(job.w.events)
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
