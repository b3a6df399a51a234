package trace

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// encodeChunkV2 returns events as one columnar frame of its own.
func encodeChunkV2(events []Event) ([]byte, error) { return appendChunkV2(nil, events, nil) }

func TestChunkV2RoundTrip(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(77)), 2000)
	frame, err := encodeChunkV2(events)
	if err != nil {
		t.Fatalf("encodeChunkV2: %v", err)
	}
	got, err := DecodeChunkBytes(frame, nil, nil)
	if err != nil {
		t.Fatalf("DecodeChunkBytes: %v", err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("v2 round trip mismatch: %d in, %d out", len(events), len(got))
	}
}

func TestChunkV2Empty(t *testing.T) {
	frame, err := encodeChunkV2(nil)
	if err != nil {
		t.Fatalf("encodeChunkV2(nil): %v", err)
	}
	got, err := DecodeChunkBytes(frame, nil, nil)
	if err != nil {
		t.Fatalf("DecodeChunkBytes: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty v2 chunk decoded to %d events", len(got))
	}
}

// workloadishEvents models what profiled RL training actually emits — and
// what the columnar format is tuned for: bursts of same-kind events (a run of
// Python steps, then a run of GPU kernels), a small fixed name vocabulary,
// and small monotone time deltas. Contrast with randomEvents, whose
// uncorrelated kinds are the run-length encoding's adversarial case.
func workloadishEvents(rng *rand.Rand, n int) []Event {
	names := []string{"step", "backprop", "cudaLaunchKernel", "memcpyH2D", "inference"}
	events := make([]Event, 0, n)
	var tcur int64
	for len(events) < n {
		// One "training step": a burst of CPU work, then a burst of GPU work.
		for i := 0; i < 8 && len(events) < n; i++ {
			tcur += int64(20 + rng.Intn(100))
			events = append(events, Event{
				Kind: KindCPU, Cat: CatPython, Proc: 0,
				Start: vclock.Time(tcur), End: vclock.Time(tcur + int64(10+rng.Intn(50))),
				Name: names[rng.Intn(2)],
			})
		}
		for i := 0; i < 4 && len(events) < n; i++ {
			tcur += int64(20 + rng.Intn(100))
			events = append(events, Event{
				Kind: KindGPU, Cat: CatGPUKernel, Proc: 0,
				Start: vclock.Time(tcur), End: vclock.Time(tcur + int64(10+rng.Intn(50))),
				Name: names[2+rng.Intn(3)],
			})
		}
	}
	return events
}

// TestChunkV2SmallerThanV1 pins the reason v2 exists: on a realistic chunk —
// few distinct names, runs of the same kind, monotone timestamps — the
// columnar encoding with its dictionary and run-length columns must beat the
// row encoding by a clear margin.
func TestChunkV2SmallerThanV1(t *testing.T) {
	events := workloadishEvents(rand.New(rand.NewSource(5)), 4096)
	v1 := seedChunk(events)
	v2 := seedChunkV2(events)
	if len(v2)*3 > len(v1)*2 {
		t.Fatalf("v2 not at least a third smaller: v1=%d bytes, v2=%d bytes", len(v1), len(v2))
	}
	t.Logf("workload-shaped chunk: v1=%d bytes, v2=%d bytes (ratio %.3f)", len(v1), len(v2), float64(len(v2))/float64(len(v1)))
}

func TestChunkFormatSniff(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(3)), 8)
	if f, err := ChunkFormat(seedChunk(events)); err != nil || f != FormatV1 {
		t.Fatalf("v1 sniff: format=%v err=%v", f, err)
	}
	if f, err := ChunkFormat(seedChunkV2(events)); err != nil || f != FormatV2 {
		t.Fatalf("v2 sniff: format=%v err=%v", f, err)
	}
	if _, err := ChunkFormat([]byte("NOTATRACE")); err == nil {
		t.Fatal("garbage sniffed as a valid chunk")
	}
}

func TestEncodeChunkV2RejectsNegativeDuration(t *testing.T) {
	if _, err := encodeChunkV2([]Event{{Kind: KindCPU, Cat: CatPython, Start: 10, End: 5}}); err == nil {
		t.Fatal("encodeChunkV2 accepted negative duration")
	}
}

// TestColumnChunkIteration exercises the parsed-chunk surface: the chunk walk
// must build the same event values a full decode materializes and size them
// as EventBytes does, and Times must visit the same extents, stopping when
// its yield says so.
func TestColumnChunkIteration(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(9)), 513)
	var cc ColumnChunk
	if err := cc.Parse(seedChunkV2(events), NewInterner()); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	walked, n, size, err := cc.walk(nil, nil, walkDecode, nil)
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if !reflect.DeepEqual(events, walked) || n != len(events) {
		t.Fatalf("walk built %d events (counted %d) != the %d source events", len(walked), n, len(events))
	}
	var want int64
	for _, e := range events {
		want += int64(eventBytes(e))
	}
	if size != want {
		t.Fatalf("walk sized the events at %d bytes, EventBytes sums to %d", size, want)
	}
	visited := 0
	if err := cc.Times(func(i int, start, end vclock.Time) bool {
		if start != events[i].Start || end != events[i].End {
			t.Fatalf("Times(%d) = [%d,%d], want [%d,%d]", i, start, end, events[i].Start, events[i].End)
		}
		visited++
		return true
	}); err != nil {
		t.Fatalf("Times: %v", err)
	}
	if visited != len(events) {
		t.Fatalf("Times visited %d of %d events", visited, len(events))
	}
	// Early stop: the yield contract must be honored.
	stops := 0
	if err := cc.Times(func(int, vclock.Time, vclock.Time) bool { stops++; return stops < 10 }); err != nil {
		t.Fatalf("Times early stop: %v", err)
	}
	if stops != 10 {
		t.Fatalf("Times visited %d events after yield returned false at 10", stops)
	}
}

// TestColumnParseAllocs pins the streaming hot path's allocation fact:
// framing a workload-shaped v2 chunk into a reused ColumnChunk and Interner
// and sweeping its extents materializes nothing, so once the chunk's scratch
// and the name dictionary are warm it allocates nothing at all.
func TestColumnParseAllocs(t *testing.T) {
	const n = 8192
	frame := seedChunkV2(workloadishEvents(rand.New(rand.NewSource(17)), n))
	in := NewInterner()
	var cc ColumnChunk
	parse := func() {
		if err := cc.Parse(frame, in); err != nil {
			t.Fatal(err)
		}
		swept := 0
		if err := cc.Times(func(int, vclock.Time, vclock.Time) bool { swept++; return true }); err != nil {
			t.Fatal(err)
		}
		if swept != n {
			t.Fatalf("swept %d of %d events", swept, n)
		}
	}
	parse()
	if got := testing.AllocsPerRun(100, parse); got != 0 {
		t.Errorf("warm Parse + Times of a %d-event chunk: %.0f allocs, want 0", n, got)
	}
}

// TestWriterFormatV2 proves the end-to-end v2 write path: a Writer opened
// with WithFormat(FormatV2) emits columnar chunks that ReadColumns serves
// without materialization, and a chunk-order sweep reproduces the write
// order exactly.
func TestWriterFormatV2(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := NewWriter(dir, 2048, WithFormat(FormatV2))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	events := randomEvents(rand.New(rand.NewSource(55)), 3000)
	w.Append(events...)
	if err := w.Close(Meta{Workload: "v2-writer-test"}); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if r.NumChunks() < 2 {
		t.Fatalf("want multiple chunks, got %d", r.NumChunks())
	}
	var got []Event
	for i := 0; i < r.NumChunks(); i++ {
		cc, ok, err := r.ReadColumns(i)
		if err != nil {
			t.Fatalf("ReadColumns(%d): %v", i, err)
		}
		if !ok {
			t.Fatalf("chunk %d written by a v2 Writer is not columnar", i)
		}
		if _, n, _, err := cc.walk(nil, nil, walkDecode, nil); err != nil || n == 0 {
			t.Fatalf("chunk %d walked to %d events (%v)", i, n, err)
		}
		if got, err = r.ReadChunk(i, got); err != nil {
			t.Fatalf("ReadChunk(%d): %v", i, err)
		}
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("swept %d events != written %d events", len(got), len(events))
	}
}

// TestReaderMixedVersionDir rewrites every other chunk of a v1 directory as
// columnar and checks the Reader decodes the mix transparently: ReadChunk
// yields the original event stream, and ReadColumns reports columnar exactly
// for the rewritten chunks.
func TestReaderMixedVersionDir(t *testing.T) {
	dir, events := writeRandomTrace(t, 23, 3000, 4096)
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if r.NumChunks() < 3 {
		t.Fatalf("want >= 3 chunks, got %d", r.NumChunks())
	}
	converted := map[int]bool{}
	for i := 0; i < r.NumChunks(); i += 2 {
		buf, err := r.ReadChunk(i, nil)
		if err != nil {
			t.Fatalf("ReadChunk(%d): %v", i, err)
		}
		chunk, _, err := EncodeEventsFormat(buf, FormatV2)
		if err != nil {
			t.Fatalf("EncodeEventsFormat: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, r.ChunkName(i)), chunk, 0o644); err != nil {
			t.Fatalf("rewriting chunk %d: %v", i, err)
		}
		converted[i] = true
	}
	r2, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir after rewrite: %v", err)
	}
	var got []Event
	var buf []Event
	for i := 0; i < r2.NumChunks(); i++ {
		_, columnar, err := r2.ReadColumns(i)
		if err != nil {
			t.Fatalf("ReadColumns(%d): %v", i, err)
		}
		if columnar != converted[i] {
			t.Fatalf("chunk %d: columnar=%v, converted=%v", i, columnar, converted[i])
		}
		buf, err = r2.ReadChunk(i, buf[:0])
		if err != nil {
			t.Fatalf("ReadChunk(%d): %v", i, err)
		}
		got = append(got, buf...)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("mixed-version sweep %d events != written %d events", len(got), len(events))
	}
}

// TestDecodeChunkV2Corrupt spot-checks the error contract on structurally
// broken frames: an error (never a panic), mentioning decode context.
func TestDecodeChunkV2Corrupt(t *testing.T) {
	full := seedChunkV2(randomEvents(rand.New(rand.NewSource(101)), 128))
	cases := map[string][]byte{
		"empty":         {},
		"magic only":    []byte("RLSC"),
		"version only":  []byte("RLSC\x02"),
		"huge count":    append([]byte("RLSC\x02\xff\xff\xff"), 0x7f),
		"truncated 1/4": full[:len(full)/4],
		"truncated 3/4": full[:3*len(full)/4],
		"last byte cut": full[:len(full)-1],
	}
	for name, data := range cases {
		if _, err := DecodeChunkBytes(data, nil, nil); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		} else if !strings.Contains(err.Error(), "trace:") {
			t.Errorf("%s: error %q lacks package context", name, err)
		}
	}
}
