package analysis

import (
	"context"
	"sync/atomic"

	"repro/internal/trace"
)

// decodeAhead is the ordered decode-ahead stage in front of the router, the
// read-side mirror of trace.Writer's encode → deliver pipeline: one goroutine
// decodes the listed chunks in order, chunk k+1 into the second of two
// recycled buffers while the consumer works on chunk k. The goroutine owns
// the Reader — its frame buffer, column scratch and Interner, which therefore
// stays single-threaded — from startDecodeAhead until close returns; the
// consumer must not call the Reader in between. Chunks arrive in list order
// and so do errors, as the *trace.ChunkError ReadChunk reports; the first
// error ends the stage.
type decodeAhead struct {
	out  chan decodedChunk  // unbuffered: the hand-off is the one-chunk lookahead
	free chan []trace.Event // the two buffers, on their way back from the consumer
	stop chan struct{}
	done chan struct{}
	// held is the buffer the consumer has: the one behind the last next —
	// before the first, the second buffer, not yet allocated — which the next
	// call hands to the decoder.
	held []trace.Event
	// The chunk decoded and not yet taken: the stage's share of the
	// residency estimate.
	waitingEvents, waitingBytes atomic.Int64
}

type decodedChunk struct {
	events []trace.Event
	bytes  int64 // eventBytes(events)
	err    error
}

// startDecodeAhead starts the stage over the chunks of r listed, ascending.
// Every start is paired with a close.
func startDecodeAhead(r *trace.Reader, chunks []int) *decodeAhead {
	d := &decodeAhead{
		out:  make(chan decodedChunk),
		free: make(chan []trace.Event, 2),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.free <- nil // the first buffer; the second is held
	go func() {
		defer close(d.done)
		for _, i := range chunks {
			var buf []trace.Event
			select {
			case buf = <-d.free:
			case <-d.stop:
				return
			}
			events, err := r.ReadChunk(i, buf[:0])
			c := decodedChunk{events, eventBytes(events), err}
			d.waitingEvents.Add(int64(len(events)))
			d.waitingBytes.Add(c.bytes)
			select {
			case d.out <- c:
			case <-d.stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return d
}

// next returns the events of the next listed chunk, valid until the call
// after: that one hands their buffer back to the decoder. It must be called
// at most once per listed chunk, and not again after an error.
func (d *decodeAhead) next() ([]trace.Event, error) {
	d.free <- d.held // never blocks: two buffers, room for two
	c := <-d.out
	d.waitingEvents.Add(-int64(len(c.events)))
	d.waitingBytes.Add(-c.bytes)
	d.held = c.events
	return c.events, c.err
}

// close stops the decoder — between chunks: a decode under way completes —
// and returns once it has exited, which hands the Reader back to the caller.
func (d *decodeAhead) close() {
	close(d.stop)
	<-d.done
}

// aheadReader is a Reader whose EachChunk runs through the decode-ahead
// stage: what the correction pre-pass (calib.NewStreamCorrector) is handed
// when the run has a worker pool, so it overlaps its marker scan with the
// decode of the next chunk exactly as the router does.
type aheadReader struct{ *trace.Reader }

func (a aheadReader) EachChunk(ctx context.Context, chunks []int, fn func(i int, events []trace.Event) error) error {
	d := startDecodeAhead(a.Reader, chunks)
	defer d.close()
	for _, i := range chunks {
		if err := ctx.Err(); err != nil {
			return err
		}
		events, err := d.next()
		if err != nil {
			return err
		}
		if err := fn(i, events); err != nil {
			return err
		}
	}
	return nil
}
