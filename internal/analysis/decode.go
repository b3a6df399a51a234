package analysis

import (
	"sync/atomic"

	"repro/internal/trace"
)

// decodeAhead is the ordered decode-ahead stage in front of the router, the
// read-side mirror of trace.Writer's encode → deliver pipeline: one goroutine
// decodes the listed chunks in order, chunk k+1 into one buffer while the
// consumer works on chunk k in another. The goroutine owns the Reader — its
// frame buffer, column scratch and Interner, which therefore stays
// single-threaded — from startDecodeAhead until close returns; the consumer
// must not call the Reader in between. Chunks arrive in list order and so do
// errors, as the *trace.ChunkError ReadChunk reports; the first error ends
// the stage.
//
// Two buffers circulate, and each has one owner at a time: the consumer
// passes one in with every next and owns the one that comes out, to keep or
// to pass back; close returns whatever the stage still holds.
type decodeAhead struct {
	out  chan decodedChunk  // unbuffered: the hand-off is the one-chunk lookahead
	free chan []trace.Event // buffers on their way from the consumer; room for both
	stop chan struct{}
	done chan struct{}
	// The chunk decoded and not yet taken: the stage's share of the
	// residency estimate.
	waitingEvents, waitingBytes atomic.Int64
}

type decodedChunk struct {
	events []trace.Event
	walked int   // the records read for them, skipped markers included
	bytes  int64 // their summed trace.EventBytes
	err    error
}

// startDecodeAhead starts the stage over the chunks of r listed, ascending,
// decoding the first into buf; skipOverhead is source.chunk's. Every start is
// paired with a close.
func startDecodeAhead(r *trace.Reader, chunks []int, buf []trace.Event, skipOverhead bool) *decodeAhead {
	d := &decodeAhead{
		out:  make(chan decodedChunk),
		free: make(chan []trace.Event, 2),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.free <- buf
	go func() {
		defer close(d.done)
		for _, i := range chunks {
			var buf []trace.Event
			select {
			case buf = <-d.free:
			case <-d.stop:
				return
			}
			events, walked, bytes, err := readChunk(r, i, buf, skipOverhead)
			d.waitingEvents.Add(int64(len(events)))
			d.waitingBytes.Add(bytes)
			select {
			case d.out <- decodedChunk{events, walked, bytes, err}:
			case <-d.stop:
				d.free <- events // never blocks: the other buffer is all that can be there
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return d
}

// next hands back to the decoder — which may be writing it as soon as next
// is called — and returns the events of the next listed chunk with the count
// of records read for them and their summed trace.EventBytes; the events are
// the caller's until it passes them to a later next. It must be called at
// most once per listed chunk, and not again after an error.
func (d *decodeAhead) next(back []trace.Event) ([]trace.Event, int, int64, error) {
	d.free <- back // never blocks: two buffers, room for two
	c := <-d.out
	d.waitingEvents.Add(-int64(len(c.events)))
	d.waitingBytes.Add(-c.bytes)
	return c.events, c.walked, c.bytes, c.err
}

// close stops the decoder — between chunks: a decode under way completes —
// and returns once it has exited, which hands the Reader back to the caller,
// with the buffers the stage was left holding.
func (d *decodeAhead) close() (held [][]trace.Event) {
	close(d.stop)
	<-d.done
	for {
		select {
		case buf := <-d.free:
			held = append(held, buf)
		default:
			return held
		}
	}
}
