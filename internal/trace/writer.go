package trace

import (
	"fmt"
	"runtime"
	"sync"
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
	// pending holds what earlier Append calls left of the open chunk; the
	// current call's share of it stays in the caller's slice until that
	// call returns.
	pending []Event
	size    int
	nchunks int
	// names tracks the distinct names of the pending v2 chunk, so the
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
// frame, index and err and then closes encoded.
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
// behind. chunkBytes <= 0 uses DefaultChunkBytes.
func NewWriter(dir string, chunkBytes int, opts ...WriterOption) (*Writer, error) {
	sink, err := newDirSink(dir, true)
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
		job.frame, job.index, job.err = EncodeEventsFormat(job.events, w.format)
		job.events = nil
		close(job.encoded)
	}
}

// deliverLoop hands frames to the sink in sequence order. The first error —
// an encode failure or the sink's — wins, and nothing is delivered after
// it: a later chunk would be a gap to the sink.
func (w *Writer) deliverLoop() {
	defer w.stages.Done()
	for job := range w.deliver {
		<-job.encoded
		if w.err != nil {
			continue
		}
		if w.err = job.err; w.err == nil {
			w.err = w.sink.AppendChunk(job.seq, job.frame, job.index)
		}
	}
}

// Append adds events to the trace, handing a chunk to the background
// encoders whenever the open chunk passes the chunk-size threshold. The
// threshold is checked per event, so one large Append still produces
// size-bounded chunks.
//
// Append borrows: a chunk that begins and ends inside events is encoded
// straight from that slice, and only the tail that does not fill a chunk is
// copied. The caller must therefore leave events untouched until Close
// returns. Appending to a closed Writer panics.
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
			w.flushLocked(events[from : i+1 : i+1])
			from = i + 1
		}
	}
	w.pending = append(w.pending, events[from:]...)
}

// eventBytes estimates an event's in-memory/serialized footprint: fixed
// fields plus name bytes. The writer's flush threshold and the streaming
// analyzer's MaxResidentBytes accounting share this estimate.
func eventBytes(e Event) int { return 16 + len(e.Name) }

// EventBytes estimates one event's resident footprint; the streaming
// analysis engine uses it for its MaxResidentBytes accounting.
func EventBytes(e Event) int { return eventBytes(e) }

// flushLocked closes the open chunk — pending followed by tail — and queues
// it. With nothing pending the chunk is tail itself, borrowed.
func (w *Writer) flushLocked(tail []Event) {
	chunk := tail
	if len(w.pending) > 0 {
		chunk = append(w.pending, tail...)
		w.pending = nil
	}
	if len(chunk) == 0 {
		return
	}
	job := &writeJob{seq: w.nchunks, events: chunk, encoded: make(chan struct{})}
	w.deliver <- job
	w.encode <- job
	w.nchunks++
	w.size = 0
	if w.names != nil {
		clear(w.names)
	}
}

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
	w.flushLocked(nil)
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
