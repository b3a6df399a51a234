package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
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
// the old one wrote — over random chunks, runs of one name (the fast path
// that skips the string table), the empty name first and repeated, negative
// process ids and out-of-order starts — and a decoded frame re-encodes to
// itself.
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
		decoded, err := DecodeChunkBytes(got, nil)
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
// not the Append calls that carried them — one bulk call (whole chunks
// borrowed from the caller's slice), one call per event (every chunk
// assembled in pending) and random batches (chunks that straddle calls)
// write the same directory, in both formats, with chunk sizes that put
// boundaries inside and across batches.
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
	if n, err := DecodeChunkBytes(chunk, nil); err != nil || len(n) != index.Events {
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
			const want = 4 // frame, string-table map, *ChunkIndex, its Procs map
			if got := testing.AllocsPerRun(10, encode); got != want {
				t.Errorf("EncodeEvents of a %d-event chunk: %.0f allocs, want %d", len(events), got, want)
			}
		})
	}
}
