package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/recycle"
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
	got, err := DecodeChunkBytes(frame, nil, nil)
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
	got, err := DecodeChunkBytes(frame, nil, nil)
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
	got, err := DecodeChunkBytes(frame, nil, nil)
	if err != nil {
		t.Fatalf("DecodeChunkBytes: %v", err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Fatal("round trip mismatch with deduplicated strings")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeChunkBytes([]byte("NOTATRACE"), nil, nil); err == nil {
		t.Fatal("DecodeChunkBytes accepted garbage magic")
	}
	if _, err := DecodeChunkBytes(nil, nil, nil); err == nil {
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
		if _, err := DecodeChunkBytes(frame, nil, nil); err != nil {
			t.Fatalf("%s: the frame itself: %v", name, err)
		}
		padded := append(bytes.Clone(frame), 1, 2, 3)
		events, err := DecodeChunkBytes(padded, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s: %d events, err = %v; want a trailing-bytes error", name, len(events), err)
		}
		if _, _, _, err := walkChunk(padded, nil, nil, nil, nil, walkScan, func(ProcID, vclock.Time, OverheadKind, string) {}); err == nil {
			t.Errorf("%s: the overhead scan accepted the padded frame", name)
		}
		if _, _, _, err := walkChunk(padded, nil, nil, nil, nil, walkSkipOverhead, nil); err == nil {
			t.Errorf("%s: the walk that skips markers accepted the padded frame", name)
		}
	}
}

// TestDecodeChunkBytesBorrows: a decode into a store takes the best fit with
// room for the frame's events and leaves an idle buffer too small for them,
// and the dst it outgrew, idle; from an empty store it makes exactly the
// room. A header that states more events than its frame holds gets the
// decoder's bound and no more: what a v1 frame's bytes could encode, nothing
// for a v2 frame, which is refused before the decode grows dst.
func TestDecodeChunkBytesBorrows(t *testing.T) {
	idle := func(bufs *recycle.Store[Event]) (caps []int) {
		for buf := bufs.Get(math.MaxInt, 0); buf != nil; buf = bufs.Get(math.MaxInt, 0) {
			caps = append(caps, cap(buf))
		}
		return caps
	}
	events := randomEvents(rand.New(rand.NewSource(3)), 500)
	for _, f := range []Format{FormatV1, FormatV2} {
		frame, _, err := EncodeEventsFormat(events, f)
		if err != nil {
			t.Fatal(err)
		}
		bufs := recycle.Store[Event]{Max: 1 << 12}
		fit := make([]Event, 0, 600)
		bufs.Put(make([]Event, 0, 64))
		bufs.Put(fit)
		got, err := DecodeChunkBytes(frame, make([]Event, 0, 8), &bufs)
		if err != nil || !reflect.DeepEqual(got, events) {
			t.Fatalf("v%d: decode into the store: %d events, %v", f, len(got), err)
		}
		if &got[0] != &fit[:1][0] {
			t.Errorf("v%d: decoded into a buffer of %d, want the idle 600", f, cap(got))
		}
		if caps := idle(&bufs); !slices.Equal(caps, []int{64, 8}) {
			t.Errorf("v%d: idle capacities %v, want the 64 too small for the chunk and the outgrown dst", f, caps)
		}
		if got, _ := DecodeChunkBytes(frame, nil, &bufs); cap(got) != len(events) {
			t.Errorf("v%d: from an empty store, capacity %d; want exactly %d", f, cap(got), len(events))
		}
		// The same body under a header stating 2^40 events.
		_, off := uvarint(frame, len(chunkMagic)+1) // past the count
		head := binary.AppendUvarint(binary.AppendUvarint([]byte(chunkMagic), uint64(f)), 1<<40)
		want := (len(frame) - off) / v1MinEventBytes
		if f == FormatV2 {
			want = 0
		}
		if got, err := DecodeChunkBytes(append(head, frame[off:]...), nil, &bufs); err == nil || cap(got) != want {
			t.Errorf("v%d stating 2^40 events: capacity %d, err %v; want %d and an error", f, cap(got), err, want)
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
		got, err := DecodeChunkBytes(frame, nil, nil)
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
