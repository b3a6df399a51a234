package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// referenceEncodeChunkV1 is the v1 encoder this package shipped before the
// append-based one replaced it, kept here as the byte-for-byte reference.
func referenceEncodeChunkV1(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(chunkMagic)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { bw.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	putVarint := func(v int64) { bw.Write(scratch[:binary.PutVarint(scratch[:], v)]) }
	putUvarint(chunkVersion)
	putUvarint(uint64(len(events)))
	strings := map[string]uint64{}
	var prevStart int64
	for _, e := range events {
		bw.WriteByte(byte(e.Kind))
		bw.WriteByte(byte(e.Cat))
		bw.WriteByte(byte(e.Overhead))
		putUvarint(uint64(e.Proc))
		putVarint(int64(e.Start) - prevStart)
		prevStart = int64(e.Start)
		if e.End < e.Start {
			return fmt.Errorf("trace: encode: event %q has negative duration", e.Name)
		}
		putUvarint(uint64(e.End - e.Start))
		ref, ok := strings[e.Name]
		if !ok {
			ref = uint64(len(strings))
			strings[e.Name] = ref
			putUvarint(ref)
			putUvarint(uint64(len(e.Name)))
			bw.WriteString(e.Name)
		} else {
			putUvarint(ref)
		}
	}
	return bw.Flush()
}

// TestEncodeV1MatchesReference: the append-based encoder writes the bytes
// the old one wrote — over random chunks, runs of one name, the empty name
// first and repeated, negative process ids and out-of-order starts — and a
// decoded frame re-encodes to itself.
func TestEncodeV1MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cases := map[string][]Event{
		"empty":  nil,
		"random": randomEvents(rng, 3000),
		"shaped": workloadishEvents(rng, 3000),
		"empty names": {
			{Kind: KindTransition, Start: 5, End: 5},
			{Kind: KindTransition, Start: 6, End: 6},
			{Kind: KindCPU, Cat: CatPython, Start: 7, End: 9, Name: "x"},
			{Kind: KindTransition, Start: 9, End: 9},
		},
		"negative proc, starts going back": {
			{Kind: KindCPU, Cat: CatCUDA, Proc: -1, Start: 1 << 40, End: 1<<40 + 3, Name: "a"},
			{Kind: KindCPU, Cat: CatCUDA, Proc: 7, Start: 12, End: 12, Name: "a"},
			{Kind: KindGPU, Cat: CatGPUKernel, Proc: -1, Start: 11, End: 1 << 50, Name: strings.Repeat("n", 300)},
		},
	}
	runs := randomEvents(rng, 2000)
	for i := range runs {
		runs[i].Name = []string{"k0", "k1", ""}[(i/7)%3]
	}
	cases["runs of one name"] = runs

	for name, events := range cases {
		var want bytes.Buffer
		if err := referenceEncodeChunkV1(&want, events); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, ix, err := EncodeEvents(events)
		if err != nil {
			t.Fatalf("%s: EncodeEvents: %v", name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: frame differs from the reference encoder's (%d vs %d bytes)", name, len(got), want.Len())
		}
		if ix.Bytes != int64(len(got)) || ix.Events != len(events) {
			t.Fatalf("%s: index says %d events in %d bytes, frame has %d in %d", name, ix.Events, ix.Bytes, len(events), len(got))
		}
		decoded, err := DecodeChunkBytes(got, nil, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		again, _, err := EncodeEvents(decoded)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("%s: decoded frame re-encodes to different bytes", name)
		}
	}
}

// TestBuildChunkIndexInterleavedProcs: the per-run accumulation reaches the
// per-event result when a process's events come in several runs.
func TestBuildChunkIndexInterleavedProcs(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(23)), 500) // procs 0..3, interleaved
	ix := BuildChunkIndex(events, 99)
	want := map[ProcID]ProcSpan{}
	phases := 0
	for _, e := range events {
		sp, ok := want[e.Proc]
		if !ok {
			sp = ProcSpan{MinStart: e.Start, MaxEnd: e.End}
		}
		sp.MinStart, sp.MaxEnd = min(sp.MinStart, e.Start), max(sp.MaxEnd, e.End)
		sp.Events++
		want[e.Proc] = sp
		if e.Kind == KindPhase {
			phases++
		}
	}
	if len(ix.Procs) != len(want) || len(ix.Phases) != phases || ix.Events != len(events) || ix.Bytes != 99 {
		t.Fatalf("index %+v, want %d procs, %d phases", ix, len(want), phases)
	}
	for p, sp := range want {
		if ix.Procs[p] != sp {
			t.Fatalf("proc %d: span %+v, want %+v", p, ix.Procs[p], sp)
		}
	}
}

// TestWriterAppendAfterClosePanics: before this was one outcome it was two —
// below the chunk threshold the events vanished, above it the Writer sent on
// a closed channel.
func TestWriterAppendAfterClosePanics(t *testing.T) {
	for name, n := range map[string]int{"below the chunk threshold": 3, "above it": 500} {
		t.Run(name, func(t *testing.T) {
			w, err := NewWriter(t.TempDir(), 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(Meta{}); err != nil {
				t.Fatal(err)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Append after Close") {
					t.Fatalf("Append after Close: recovered %q, want a panic naming the misuse", msg)
				}
			}()
			w.Append(randomEvents(rand.New(rand.NewSource(3)), n)...)
		})
	}
}

// TestWriterAppendBatchingIsInvisible: chunk boundaries follow the events,
// not the Append calls that carried them — one bulk call (whole chunks cut
// out of one slice), one call per event (every chunk assembled event by
// event) and random batches (chunks that straddle calls) write the same
// directory, in both formats, with chunk sizes that put boundaries inside
// and across batches.
func TestWriterAppendBatchingIsInvisible(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(41)), 4000)
	meta := Meta{Workload: "batching"}
	write := func(f Format, chunkBytes int, batch func(i int) int) string {
		t.Helper()
		sink, err := NewDirSink(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w := NewSinkWriter(sink, chunkBytes, WithFormat(f))
		for i := 0; i < len(events); {
			n := min(batch(i), len(events)-i)
			w.Append(events[i : i+n]...)
			i += n
		}
		if err := w.Close(meta); err != nil {
			t.Fatal(err)
		}
		return sink.Digest()
	}
	for _, f := range []Format{FormatV1, FormatV2} {
		for _, chunkBytes := range []int{64, 4 << 10, 0} {
			want := write(f, chunkBytes, func(int) int { return len(events) })
			if got := write(f, chunkBytes, func(int) int { return 1 }); got != want {
				t.Errorf("%v chunkBytes=%d: one event per Append wrote %s, one bulk Append %s", f, chunkBytes, got, want)
			}
			rng := rand.New(rand.NewSource(43))
			if got := write(f, chunkBytes, func(int) int { return 1 + rng.Intn(300) }); got != want {
				t.Errorf("%v chunkBytes=%d: random batches wrote %s, one bulk Append %s", f, chunkBytes, got, want)
			}
		}
	}
}

// TestWriterAppendCopies: the caller may reuse its slice as soon as Append
// returns — scribbling over it before Close changes nothing written.
func TestWriterAppendCopies(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(47)), 3000)
	write := func(scribble bool) string {
		sink, err := NewDirSink(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w := NewSinkWriter(sink, 4<<10)
		batch := make([]Event, 0, 256)
		for i := 0; i < len(events); i += cap(batch) {
			batch = append(batch[:0], events[i:min(i+cap(batch), len(events))]...)
			w.Append(batch...)
			if scribble {
				for j := range batch {
					batch[j] = Event{Kind: KindCPU, Start: 1, End: 2, Name: "scribbled"}
				}
			}
		}
		if err := w.Close(Meta{Workload: "copies"}); err != nil {
			t.Fatal(err)
		}
		return sink.Digest()
	}
	if got, want := write(true), write(false); got != want {
		t.Fatalf("reusing the Append slice changed the trace: %s, want %s", got, want)
	}
}

// TestChunkBufsBounded: a Writer's chunk buffers come from and go back to
// EventBufs, so they are bounded by its idle capacity; an idle one holds no
// event — no name — alive; a Writer with a longest chunk asks for the best
// fit, and one without — its first chunk — for the largest idle buffer; one
// too small stays idle, for a shorter chunk, while the chunk takes a fresh
// one with room.
func TestChunkBufsBounded(t *testing.T) {
	drain := func() (caps []int) {
		for buf := EventBufs.Get(math.MaxInt, 0); buf != nil; buf = EventBufs.Get(math.MaxInt, 0) {
			caps = append(caps, cap(buf))
		}
		return caps
	}
	drain()
	putChunkBuf(make([]Event, 1, EventBufs.Max+1))
	if caps := drain(); len(caps) != 0 {
		t.Fatalf("a buffer over EventBufs.Max was kept (%v idle)", caps)
	}
	for _, c := range []int{64, 256, 128} {
		putChunkBuf(append(make([]Event, 0, c), Event{Name: "held"}))
	}
	// open is the chunk buffer a Writer whose chunks have held at most
	// longest events opens for an Append of n.
	open := func(longest, n int) []Event {
		w := &Writer{longest: longest}
		w.addLocked(make([]Event, n))
		return w.open
	}
	if buf := open(100, 0); len(buf) != 0 || cap(buf) != 128 || buf[:1][0] != (Event{}) {
		t.Fatalf("got len %d cap %d, first slot %+v: want the empty, cleared idle buffer that fits best", len(buf), cap(buf), buf[:1][0])
	}
	if buf := open(0, 10); cap(buf) != 256 {
		t.Fatalf("a first chunk got cap %d, want the largest idle buffer", cap(buf))
	}
	if buf := open(0, 100); cap(buf) < 100 {
		t.Fatalf("a first Append of 100 events got cap %d, want a fresh buffer", cap(buf))
	}
	if caps := drain(); len(caps) != 1 || caps[0] != 64 {
		t.Fatalf("%v idle, want the buffer too small for 100 events kept", caps)
	}
}

// TestFrameBufsBounded: the recycled frame buffers are bounded in bytes by
// frameBufs.Max, handed out best fit, and one too small for a chunk stays
// idle, for a shorter chunk, while the chunk takes a fresh one with room.
func TestFrameBufsBounded(t *testing.T) {
	drain := func() (caps []int) {
		for buf := frameBufs.Get(math.MaxInt, 0); buf != nil; buf = frameBufs.Get(math.MaxInt, 0) {
			caps = append(caps, cap(buf))
		}
		return caps
	}
	drain()
	frameBufs.Put(make([]byte, 1, frameBufs.Max+1))
	frameBufs.Put(nil)
	if caps := drain(); len(caps) != 0 {
		t.Fatalf("a buffer over frameBufs.Max or an empty one was kept (%v idle)", caps)
	}
	for i := 0; i < 3*(2*maxEncoders+1); i++ {
		frameBufs.Put(make([]byte, 3, DefaultChunkBytes))
	}
	if caps, want := drain(), frameBufs.Max/DefaultChunkBytes; len(caps) != want {
		t.Fatalf("%d buffers of %d bytes idle, want the %d that fit in %d bytes", len(caps), DefaultChunkBytes, want, frameBufs.Max)
	}
	for _, c := range []int{4096, 64} {
		frameBufs.Put(make([]byte, 3, c))
	}
	if buf := frameBufs.Get(10, 10); len(buf) != 0 || cap(buf) != 64 {
		t.Fatalf("got len %d cap %d: want the empty idle buffer that fits best", len(buf), cap(buf))
	}
	if buf := frameBufs.Get(8192, 8192); cap(buf) < 8192 {
		t.Fatalf("asked for 8192 bytes: cap %d, want a fresh buffer", cap(buf))
	}
	if caps := drain(); len(caps) != 1 || caps[0] != 4096 {
		t.Fatalf("%v idle, want the buffer too small for 8192 bytes kept", caps)
	}
}

// TestV2WriterKeepsTooSmallFrameBuffer: a v2 frame borrows its buffer once
// its encoder knows the frame's size, so an idle buffer too small for every
// frame is still idle after the Writer is done.
func TestV2WriterKeepsTooSmallFrameBuffer(t *testing.T) {
	idle := func() (bufs [][]byte) {
		for buf := frameBufs.Get(math.MaxInt, 0); buf != nil; buf = frameBufs.Get(math.MaxInt, 0) {
			bufs = append(bufs, buf)
		}
		return bufs
	}
	idle()
	small := make([]byte, 0, 64)
	frameBufs.Put(small)
	sink := &recordingSink{failAt: -1}
	w := NewSinkWriter(sink, 4<<10, WithFormat(FormatV2))
	w.Append(randomEvents(rand.New(rand.NewSource(5)), 4000)...)
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	bufs := idle()
	if !slices.ContainsFunc(bufs, func(buf []byte) bool { return &buf[:1][0] == &small[:1][0] }) {
		t.Fatalf("%d v2 frames left %d buffers idle, not the 64-byte one", len(sink.seqs), len(bufs))
	}
}

// TestIdleCodecsHoldNoName: a v1 decoder and a v2 encoder go idle with
// their name table and maps cleared, as an idle chunk buffer does.
func TestIdleCodecsHoldNoName(t *testing.T) {
	events := []Event{{Kind: KindCPU, Cat: CatPython, Start: 1, End: 5, Name: "held"}}
	if _, err := encodeChunkV2(events); err != nil {
		t.Fatal(err)
	}
	enc, ok := v2Encoders.Get()
	if !ok || len(enc.refs) != 0 || len(enc.classOf) != 0 {
		t.Fatalf("idle v2 encoder (found %v) holds %d names, %d classes", ok, len(enc.refs), len(enc.classOf))
	}
	v2Encoders.Put(enc)
	frame, err := appendChunkV1(nil, events)
	if err == nil {
		_, err = DecodeChunkBytes(frame, nil, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	d, ok := v1Decoders.Get()
	if !ok || len(d.table) == 0 || d.table[0] != "" {
		t.Fatalf("idle v1 decoder (found %v): name table %q, want one cleared slot", ok, d.table)
	}
	v1Decoders.Put(d)
}

// TestIdleCodecsBounded: a v1 frame that declares a new name on every
// record — as a POSTed chunk may — leaves no idle decoder holding a name
// table past maxIdleNames, and an encoder that met as many names is not
// kept either.
func TestIdleCodecsBounded(t *testing.T) {
	events := make([]Event, 100_000)
	for i := range events {
		events[i] = Event{Kind: KindCPU, Cat: CatPython, Start: vclock.Time(i), End: vclock.Time(i + 1), Name: strconv.Itoa(i)}
	}
	frame, err := appendChunkV1(nil, events)
	if err == nil {
		_, err = DecodeChunkBytes(frame, nil, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	for d, ok := v1Decoders.Get(); ok; d, ok = v1Decoders.Get() {
		if cap(d.table) > maxIdleNames {
			t.Errorf("an idle v1 decoder holds a name table of %d slots, over %d", cap(d.table), maxIdleNames)
		}
	}
	for _, ok := v2Encoders.Get(); ok; _, ok = v2Encoders.Get() {
	}
	if _, err := encodeChunkV2(events); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2Encoders.Get(); ok {
		t.Errorf("an encoder that met %d names was kept idle", len(events))
	}
}

// TestChunkBufsConcurrentWriters: Writers running at once share the
// recycled chunk buffers, so a buffer one Writer's encoder hands back is the
// next chunk of another; each directory must still be the one its Writer
// writes alone. Run under -race, this is what shows a buffer handed back
// while still being read.
func TestChunkBufsConcurrentWriters(t *testing.T) {
	traces := make([][]Event, 6)
	for i := range traces {
		traces[i] = randomEvents(rand.New(rand.NewSource(int64(53+i))), 2000+500*i)
	}
	writeAloneAndTogether(t, traces, func(i int) int { return 1 << 10 * (1 + i%3) }, func(i int) int { return 1 + i*97 })
}

// TestFrameBufsConcurrentWriters: Writers running at once, v1 and v2, share
// the recycled frame buffers, so a frame one Writer's deliverer hands back
// is built over by another's encoder; each directory must still be the one
// its Writer writes alone. Chunk sizes differ by Writer, so a buffer handed
// from one to another is sometimes too small and sometimes larger than
// needed. Run under -race, this is what shows a frame handed back while the
// sink still reads it.
func TestFrameBufsConcurrentWriters(t *testing.T) {
	traces := make([][]Event, 6)
	for i := range traces {
		traces[i] = randomEvents(rand.New(rand.NewSource(int64(71+i))), 3000+700*i)
	}
	writeAloneAndTogether(t, traces, func(i int) int { return 512 << (i % 4) }, func(i int) int { return len(traces[i]) })
}

// writeAloneAndTogether writes each trace through a Writer of its own into a
// DirSink — Writer i at chunkBytes(i), v1 or v2 by i's parity, in Appends of
// batch(i) events — first one Writer at a time, then all at once, and fails
// on any directory whose digest the two ways differ.
func writeAloneAndTogether(t *testing.T, traces [][]Event, chunkBytes, batch func(i int) int) {
	t.Helper()
	write := func(i int) (string, error) {
		sink, err := NewDirSink(t.TempDir())
		if err != nil {
			return "", err
		}
		w := NewSinkWriter(sink, chunkBytes(i), WithFormat([]Format{FormatV1, FormatV2}[i%2]))
		for evs := traces[i]; len(evs) > 0; {
			n := min(len(evs), batch(i))
			w.Append(evs[:n]...)
			evs = evs[n:]
		}
		if err := w.Close(Meta{Workload: fmt.Sprint("writer", i)}); err != nil {
			return "", err
		}
		return sink.Digest(), nil
	}
	want := make([]string, len(traces))
	for i := range traces {
		d, err := write(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	got := make([]string, len(traces))
	errs := make([]error, len(traces))
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = write(i)
		}()
	}
	wg.Wait()
	for i := range traces {
		if errs[i] != nil || got[i] != want[i] {
			t.Errorf("writer %d: concurrently %s (%v), alone %s", i, got[i], errs[i], want[i])
		}
	}
}

// recordingSink notes the sequence numbers it is handed and fails at failAt.
type recordingSink struct {
	seqs   []int
	failAt int
	sealed bool
}

var errSinkFull = errors.New("sink full")

func (s *recordingSink) AppendChunk(seq int, chunk []byte, index *ChunkIndex) error {
	s.seqs = append(s.seqs, seq)
	if seq == s.failAt {
		return errSinkFull
	}
	if n, err := DecodeChunkBytes(chunk, nil, nil); err != nil || len(n) != index.Events {
		return fmt.Errorf("seq %d: frame decodes to %d events (%v), index says %d", seq, len(n), err, index.Events)
	}
	return nil
}

func (s *recordingSink) Seal(Meta) error { s.sealed = true; return nil }

// settledGoroutines waits for goroutines that have finished their work to
// finish exiting, then returns the count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestWriterPipelineOrder: however many encoders run, the sink is handed
// seq 0…n−1 in order; a sink that fails at seq k makes Close return that
// error and sees nothing after k; and Close leaves no goroutine behind
// either way.
func TestWriterPipelineOrder(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(29)), 6000)
	for _, procs := range []int{1, 2, 4} {
		for _, failAt := range []int{-1, 0, 5} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/failAt=%d", procs, failAt), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				before := runtime.NumGoroutine()
				sink := &recordingSink{failAt: failAt}
				w := NewSinkWriter(sink, 4<<10)
				w.Append(events...)
				err := w.Close(Meta{})
				chunks := w.nchunks
				if chunks < 8 {
					t.Fatalf("only %d chunks; the test needs at least 8 in flight", chunks)
				}
				wantSeqs := chunks
				if failAt >= 0 {
					wantSeqs = failAt + 1
					if !errors.Is(err, errSinkFull) {
						t.Fatalf("Close returned %v, want the sink's error", err)
					}
				} else if err != nil {
					t.Fatalf("Close: %v", err)
				}
				if len(sink.seqs) != wantSeqs {
					t.Fatalf("sink saw %d chunks %v, want %d", len(sink.seqs), sink.seqs, wantSeqs)
				}
				for i, seq := range sink.seqs {
					if seq != i {
						t.Fatalf("sink saw seq %v: out of order at position %d", sink.seqs, i)
					}
				}
				if !sink.sealed {
					t.Fatal("sink not sealed")
				}
				if after := settledGoroutines(before); after > before {
					t.Fatalf("%d goroutines before NewSinkWriter, %d after Close", before, after)
				}
			})
		}
	}
}

// TestWriterEncodeErrorWins: an event the encoder refuses fails the run with
// the encoder's error, and the chunks behind it are not delivered.
func TestWriterEncodeErrorWins(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(31)), 2000)
	events[1000].End = events[1000].Start - 1
	sink := &recordingSink{failAt: -1}
	w := NewSinkWriter(sink, 4<<10)
	w.Append(events...)
	err := w.Close(Meta{})
	if err == nil || !strings.Contains(err.Error(), "negative duration") {
		t.Fatalf("Close returned %v, want the encoder's negative-duration error", err)
	}
	if n := len(sink.seqs); n == 0 || n >= w.nchunks-1 {
		t.Fatalf("sink saw %d of %d chunks; want the ones before the bad chunk only", n, w.nchunks)
	}
}

// TestEncodeChunkAllocs pins what encoding one Writer-sized chunk allocates:
// the frame (presized, so it never regrows on profiler-shaped events), the
// string table, and the index with its process map. No allocation scales
// with the event count.
func TestEncodeChunkAllocs(t *testing.T) {
	events := workloadishEvents(rand.New(rand.NewSource(7)), 32768)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			encode := func() {
				if _, _, err := EncodeEvents(events); err != nil {
					t.Fatal(err)
				}
			}
			want := 4 // frame, string-table map, *ChunkIndex, its Procs map
			if raceEnabled {
				want++ // the frame's grow makes a temporary as well
			}
			if got := testing.AllocsPerRun(10, encode); got != float64(want) {
				t.Errorf("EncodeEvents of a %d-event chunk: %.0f allocs, want %d", len(events), got, want)
			}
		})
	}
}
