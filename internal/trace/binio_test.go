package trace

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vclock"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindCPU, Cat: CatPython, Proc: 0, Start: 0, End: 1000, Name: "python"},
		{Kind: KindCPU, Cat: CatBackend, Proc: 0, Start: 100, End: 400, Name: "session.run"},
		{Kind: KindCPU, Cat: CatCUDA, Proc: 0, Start: 150, End: 170, Name: "cudaLaunchKernel"},
		{Kind: KindGPU, Cat: CatGPUKernel, Proc: 0, Start: 160, End: 250, Name: "matmul"},
		{Kind: KindOp, Proc: 0, Start: 50, End: 900, Name: "backpropagation"},
		{Kind: KindOverhead, Overhead: OverheadCUPTI, Proc: 0, Start: 155, End: 155, Name: "cudaLaunchKernel"},
		{Kind: KindTransition, Proc: 0, Start: 95, End: 95, Name: TransPythonToBackend},
		{Kind: KindPhase, Proc: 1, Start: 0, End: 990, Name: "data_collection"},
	}
}

func TestChunkRoundTrip(t *testing.T) {
	events := sampleEvents()
	frame, err := encodeChunkV1(events)
	if err != nil {
		t.Fatalf("encodeChunkV1: %v", err)
	}
	got, err := DecodeChunkBytes(frame, nil)
	if err != nil {
		t.Fatalf("DecodeChunkBytes: %v", err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestChunkRoundTripEmpty(t *testing.T) {
	frame, err := encodeChunkV1(nil)
	if err != nil {
		t.Fatalf("encodeChunkV1(empty): %v", err)
	}
	got, err := DecodeChunkBytes(frame, nil)
	if err != nil {
		t.Fatalf("DecodeChunkBytes(empty): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d events from empty chunk", len(got))
	}
}

func TestChunkStringTableDeduplicates(t *testing.T) {
	// 1000 events sharing one name must encode the name once.
	events := make([]Event, 1000)
	for i := range events {
		events[i] = Event{
			Kind: KindCPU, Cat: CatCUDA, Proc: 0,
			Start: vclock.Time(i * 10), End: vclock.Time(i*10 + 5),
			Name: "cudaLaunchKernel",
		}
	}
	frame, err := encodeChunkV1(events)
	if err != nil {
		t.Fatalf("encodeChunkV1: %v", err)
	}
	if n := strings.Count(string(frame), "cudaLaunchKernel"); n != 1 {
		t.Fatalf("name appears %d times in encoding, want 1", n)
	}
	got, err := DecodeChunkBytes(frame, nil)
	if err != nil {
		t.Fatalf("DecodeChunkBytes: %v", err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatal("round trip mismatch with deduplicated strings")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeChunkBytes([]byte("NOTATRACE"), nil); err == nil {
		t.Fatal("DecodeChunkBytes accepted garbage magic")
	}
	if _, err := DecodeChunkBytes(nil, nil); err == nil {
		t.Fatal("DecodeChunkBytes accepted empty input")
	}
}

// TestDecodeRejectsTrailingBytes: a frame that goes on after its last record
// (v1) or column (v2) is refused — by the decoder, so live ingest never
// stores and digests bytes no reader would look at, and by the marker scan,
// which accepts what the decoder accepts.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	for name, frame := range map[string][]byte{
		"v1": seedChunk(sampleEvents()), "v2": seedChunkV2(sampleEvents()),
		"v1 empty": seedChunk(nil), "v2 empty": seedChunkV2(nil),
	} {
		if _, err := DecodeChunkBytes(frame, nil); err != nil {
			t.Fatalf("%s: the frame itself: %v", name, err)
		}
		padded := append(bytes.Clone(frame), 1, 2, 3)
		events, err := DecodeChunkBytes(padded, nil)
		if err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s: %d events, err = %v; want a trailing-bytes error", name, len(events), err)
		}
		if _, _, _, err := walkChunk(padded, nil, nil, nil, walkScan, func(ProcID, vclock.Time, OverheadKind, string) {}); err == nil {
			t.Errorf("%s: the overhead scan accepted the padded frame", name)
		}
		if _, _, _, err := walkChunk(padded, nil, nil, nil, walkSkipOverhead, nil); err == nil {
			t.Errorf("%s: the walk that skips markers accepted the padded frame", name)
		}
	}
}

func TestEncodeRejectsNegativeDuration(t *testing.T) {
	if _, err := encodeChunkV1([]Event{{Kind: KindCPU, Cat: CatPython, Start: 10, End: 5}}); err == nil {
		t.Fatal("encodeChunkV1 accepted negative duration")
	}
}

// randomEvents builds a pseudo-random but valid event list for the
// round-trip property test.
func randomEvents(rng *rand.Rand, n int) []Event {
	kinds := []EventKind{KindCPU, KindGPU, KindOp, KindPhase, KindOverhead, KindTransition}
	cpuCats := []Category{CatPython, CatSimulator, CatBackend, CatCUDA}
	gpuCats := []Category{CatGPUKernel, CatGPUMemcpy}
	names := []string{"a", "backprop", "cudaLaunchKernel", "inference", "memcpyH2D", "очень-юникод"}
	events := make([]Event, n)
	var tcur int64
	for i := range events {
		tcur += rng.Int63n(1_000_000)
		e := Event{
			Kind:  kinds[rng.Intn(len(kinds))],
			Proc:  ProcID(rng.Intn(4)),
			Start: vclock.Time(tcur),
			Name:  names[rng.Intn(len(names))],
		}
		e.End = e.Start.Add(vclock.Duration(rng.Int63n(1_000_000)))
		switch e.Kind {
		case KindCPU:
			e.Cat = cpuCats[rng.Intn(len(cpuCats))]
		case KindGPU:
			e.Cat = gpuCats[rng.Intn(len(gpuCats))]
		case KindOverhead:
			e.Overhead = OverheadKind(1 + rng.Intn(4))
			e.End = e.Start
		case KindTransition:
			e.End = e.Start
		}
		events[i] = e
	}
	return events
}

func TestChunkRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		events := randomEvents(r, int(size))
		frame, err := encodeChunkV1(events)
		if err != nil {
			return false
		}
		got, err := DecodeChunkBytes(frame, nil)
		if err != nil {
			return false
		}
		if len(events) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(events, got)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	events := sampleEvents()
	w.Append(events...)
	meta := Meta{
		Workload: "unit-test",
		Config:   Full(),
		Procs: map[ProcID]ProcInfo{
			0: {Name: "trainer", Parent: -1},
			1: {Name: "worker", Parent: 0},
		},
	}
	if err := w.Close(meta); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if got.Meta.Workload != "unit-test" || !got.Meta.Config.CUPTI {
		t.Fatalf("metadata mismatch: %+v", got.Meta)
	}
	if got.Meta.Procs[1].Name != "worker" || got.Meta.Procs[1].Parent != 0 {
		t.Fatalf("proc metadata mismatch: %+v", got.Meta.Procs)
	}
	if len(got.Events) != len(events) {
		t.Fatalf("read %d events, want %d", len(got.Events), len(events))
	}
	want := &Trace{Events: append([]Event(nil), events...)}
	want.Sort()
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatalf("events mismatch:\n got %+v\nwant %+v", got.Events, want.Events)
	}
}

func TestWriterChunksLargeTraces(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := NewWriter(dir, 4096) // tiny chunks to force splitting
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	events := randomEvents(rng, 2000)
	for _, e := range events {
		w.Append(e)
	}
	if err := w.Close(Meta{Workload: "chunky"}); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.nchunks < 2 {
		t.Fatalf("expected multiple chunks, got %d", w.nchunks)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(got.Events) != len(events) {
		t.Fatalf("read %d events, want %d", len(got.Events), len(events))
	}
}

func TestWriterDoubleCloseFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := NewWriter(dir, 0)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := w.Close(Meta{}); err == nil {
		t.Fatal("second Close succeeded")
	}
}

func TestReadDirMissing(t *testing.T) {
	if _, err := ReadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("ReadDir on missing directory succeeded")
	}
}
