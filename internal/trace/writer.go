package trace

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/disk"
	"repro/internal/recycle"
)

// DefaultChunkBytes is the serialized-size threshold at which a buffered
// chunk is handed to the background writer. The paper flushes at 20 MB
// (Appendix A.1); the default here is smaller because simulated traces are
// smaller, but the mechanism is identical.
const DefaultChunkBytes = 1 << 20

const (
	chunkFilePattern = "chunk_%06d.rlstrace"
	metaFileName     = "meta.json"
)

// maxEncoders caps the Writer's encode stage. Landing a chunk in a
// directory sink costs about what encoding it does, so past a few encoders
// the one deliverer is the limit and more would only hold more frames in
// flight.
const maxEncoders = 4

// Writer persists a trace as a sequence of binary chunks plus run
// metadata, delivered to a Sink. Serialization and delivery happen on
// background goroutines so that trace collection stays off the training
// critical path (paper Appendix A.1: traces are aggregated in librlscope.so
// and dumped asynchronously): a bounded set of encoders turns chunks into
// frames concurrently, and one deliverer hands the frames to the Sink
// strictly in sequence order — the order the Sink contract requires.
// NewWriter targets a local directory — the historical layout — while
// NewSinkWriter accepts any Sink, which is how a workload streams its trace
// over HTTP into a live rlscope-serve store instead of writing local files.
//
// Writer methods are not safe for concurrent use by multiple goroutines;
// each simulated process buffers its own events and the harness feeds them
// to the writer sequentially.
type Writer struct {
	sink       Sink
	chunkBytes int
	format     Format

	mu sync.Mutex
	// open is the open chunk's events, in a buffer taken from EventBufs
	// when its first event arrives; longest is the most events a chunk of
	// this Writer has held, the room that buffer is asked for.
	open    []Event
	longest int
	size    int
	nchunks int
	// names tracks the distinct names of the open v2 chunk, so the
	// flush threshold can estimate the encoded size (each name is stored
	// once per chunk in the dictionary).
	names  map[string]struct{}
	closed bool

	// Every chunk goes to both channels in sequence order: encode feeds
	// the encoders, deliver tells the deliverer which frame comes next.
	// Their capacity bounds the chunks in flight.
	encode  chan *writeJob
	deliver chan *writeJob
	stages  sync.WaitGroup // the encoders and the deliverer
	err     error          // first error; the deliverer's until stages is done
}

// writeJob is one chunk on its way through the pipeline. An encoder fills
// frame, index and err, hands events back to EventBufs and then closes
// encoded; the deliverer hands frame back to frameBufs.
type writeJob struct {
	seq     int
	events  []Event
	encoded chan struct{}
	frame   []byte
	index   *ChunkIndex
	err     error
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithFormat selects the chunk encoding the Writer emits. The default is
// FormatV1, the historical byte-for-byte layout; FormatV2 writes columnar
// chunks (and sizes them by estimated encoded bytes, so v2 chunk files pack
// several times more events into the same chunkBytes budget).
func WithFormat(f Format) WriterOption {
	return func(w *Writer) {
		if f.valid() {
			w.format = f
		}
	}
}

// NewWriter creates the directory (if needed) and returns a Writer
// flushing chunks of approximately chunkBytes serialized bytes into it.
// Stale trace files from a previous run in the same directory are removed
// first, so a rewrite can never leave orphaned higher-numbered chunks
// behind. The Writer's sink keeps no running digest, since nothing can ask
// it for one; DirDigest(dir) computes it from the files. chunkBytes <= 0
// uses DefaultChunkBytes.
func NewWriter(dir string, chunkBytes int, opts ...WriterOption) (*Writer, error) {
	sink, err := newDirSink(disk.OS, dir, true)
	if err != nil {
		return nil, err
	}
	return NewSinkWriter(sink, chunkBytes, opts...), nil
}

// NewSinkWriter returns a Writer delivering its chunk frames to sink.
// chunkBytes <= 0 uses DefaultChunkBytes.
func NewSinkWriter(sink Sink, chunkBytes int, opts ...WriterOption) *Writer {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	n := min(runtime.GOMAXPROCS(0), maxEncoders)
	w := &Writer{
		sink:       sink,
		chunkBytes: chunkBytes,
		format:     FormatV1,
		// Two chunks per encoder: one being encoded, one encoded and
		// waiting its turn at the sink, so an encoder never idles behind a
		// slower neighbour.
		encode:  make(chan *writeJob, 2*n),
		deliver: make(chan *writeJob, 2*n),
	}
	for _, opt := range opts {
		opt(w)
	}
	if w.format == FormatV2 {
		w.names = map[string]struct{}{}
	}
	w.stages.Add(n + 1)
	for i := 0; i < n; i++ {
		go w.encodeLoop()
	}
	go w.deliverLoop()
	return w
}

func (w *Writer) encodeLoop() {
	defer w.stages.Done()
	for job := range w.encode {
		// The sidecar index is derived from the same event slice the chunk
		// was encoded from, so the two can never disagree; a streaming
		// analysis plans chunk routing from it without decoding events.
		job.frame, job.index, job.err = encodeInto(job.events, w.format, &frameBufs)
		putChunkBuf(job.events)
		job.events = nil
		close(job.encoded)
	}
}

// deliverLoop hands frames to the sink in sequence order, and each frame
// back to frameBufs once the sink is done with it. The first error — an
// encode failure or the sink's — wins, and nothing is delivered after it: a
// later chunk would be a gap to the sink.
func (w *Writer) deliverLoop() {
	defer w.stages.Done()
	for job := range w.deliver {
		<-job.encoded
		if w.err == nil {
			if w.err = job.err; w.err == nil {
				w.err = w.sink.AppendChunk(job.seq, job.frame, job.index)
			}
		}
		frameBufs.Put(job.frame) // a frame holds no pointer: nothing to clear
		job.frame = nil
	}
}

// Append adds events to the trace, handing a chunk to the background
// encoders whenever the open chunk passes the chunk-size threshold. The
// threshold is checked per event, so one large Append still produces
// size-bounded chunks.
//
// Append copies: events go into a chunk buffer the Writer owns, so the
// caller may reuse or modify its slice as soon as Append returns.
// Appending to a closed Writer panics.
func (w *Writer) Append(events ...Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		panic("trace: Writer.Append after Close")
	}
	from := 0 // events[from:i] is the open chunk's share of this call
	for i := range events {
		e := &events[i]
		// Estimated serialized size. An estimate is fine; chunk boundaries
		// are not semantic. The v1 estimate (fixed fields plus name bytes)
		// tracks the resident footprint; the v2 estimate tracks the
		// columnar encoding — a handful of bytes per event plus each
		// distinct name once — so v2 chunk files carry several times more
		// events for the same chunkBytes threshold.
		if w.format == FormatV2 {
			w.size += 6
			if _, ok := w.names[e.Name]; !ok {
				w.names[e.Name] = struct{}{}
				w.size += len(e.Name) + 2
			}
		} else {
			w.size += eventBytes(*e)
		}
		if w.size >= w.chunkBytes {
			w.addLocked(events[from : i+1])
			w.flushLocked()
			from = i + 1
		}
	}
	if from < len(events) {
		w.addLocked(events[from:])
	}
}

// addLocked copies events into the open chunk, taking it a buffer first if
// it has none: best fit for the Writer's longest chunk so far, with room for
// that and for events. A first chunk (longest 0) does not know its length,
// so it takes the largest idle buffer.
func (w *Writer) addLocked(events []Event) {
	if w.open == nil {
		n := max(w.longest, len(events))
		w.open = EventBufs.Get(cmp.Or(w.longest, math.MaxInt), n)
	}
	w.open = append(w.open, events...)
}

// eventBytes estimates an event's in-memory/serialized footprint: fixed
// fields plus name bytes. The writer's flush threshold and the streaming
// analyzer's MaxResidentBytes accounting share this estimate.
func eventBytes(e Event) int { return 16 + len(e.Name) }

// EventBytes estimates one event's resident footprint; the streaming
// analysis engine uses it for its MaxResidentBytes accounting.
func EventBytes(e Event) int { return eventBytes(e) }

// flushLocked closes the open chunk and queues it; the chunk's buffer
// travels with it to the encoder, which hands it back.
func (w *Writer) flushLocked() {
	if len(w.open) == 0 {
		return
	}
	job := &writeJob{seq: w.nchunks, events: w.open, encoded: make(chan struct{})}
	w.deliver <- job
	w.encode <- job
	w.longest = max(w.longest, len(w.open))
	w.open = nil
	w.nchunks++
	w.size = 0
	if w.names != nil {
		clear(w.names)
	}
}

// EventBufs is the process's one store of idle event buffers, which every
// borrower of one draws on: the Writer's chunk buffers, the buffers live
// appends decode into, and the batch pipeline's and every incremental
// analysis's windows. Its bound, 2^20 events of capacity — 40 MiB of Event —
// is the whole idle event-buffer ceiling, however many traces are open and
// runs under way. A borrower clears, before Put, what it must not keep alive.
var EventBufs = recycle.Store[Event]{Max: 1 << 20}

// putChunkBuf hands an encoded chunk's buffer back to EventBufs. The events
// are cleared first, so an idle buffer holds no name alive.
func putChunkBuf(buf []Event) {
	clear(buf)
	EventBufs.Put(buf)
}

// frameBufs recycles the buffers frames are built in, across chunks and
// across Writers: an encoder takes one per chunk, and the deliverer hands it
// back once the sink's AppendChunk has returned, which the Sink contract
// says ends the sink's use of it. Best fit keeps a short last chunk's buffer
// for the next short chunk. Its bound is what the frames one Writer holds at
// once need at the default chunk size: 2*maxEncoders+1 — its deliver channel
// full and one being delivered — of twice DefaultChunkBytes each.
var frameBufs = recycle.Store[byte]{Max: (2*maxEncoders + 1) * 2 * DefaultChunkBytes}

// Close flushes remaining events, waits for the background pipeline to
// drain, seals the sink with the run metadata, and reports the first
// error encountered, if any.
func (w *Writer) Close(meta Meta) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("trace: writer already closed")
	}
	w.closed = true
	w.flushLocked()
	w.mu.Unlock()

	close(w.encode)
	close(w.deliver)
	w.stages.Wait()

	if err := w.sink.Seal(meta); err != nil && w.err == nil {
		return err
	}
	return w.err
}

// ReadDir loads a trace previously written by Writer from dir, materializing
// every chunk into one Trace. A truncated or corrupt chunk file is reported
// as a *ChunkError naming the offending file. For bounded-memory analysis of
// large traces, use OpenDir and the streaming engine instead.
func ReadDir(dir string) (*Trace, error) {
	r, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	t := &Trace{Meta: r.Meta(), Events: make([]Event, 0, r.eventsHint())}
	for i := 0; i < r.NumChunks(); i++ {
		t.Events, err = r.ReadChunk(i, t.Events)
		if err != nil {
			return nil, err
		}
	}
	t.Sort()
	return t, nil
}
