package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// seedChunk encodes events into a v1 frame for the fuzz corpus.
func seedChunk(events []Event) []byte {
	frame, err := encodeChunkV1(events)
	if err != nil {
		panic(err)
	}
	return frame
}

// FuzzDecodeChunk feeds arbitrary bytes to the chunk decoder. Two
// properties must hold: the decoder never panics on garbage, and anything
// it accepts re-encodes and re-decodes to the identical event list (every
// decodable chunk is a fixed point of the round trip). The seed corpus —
// empty chunks, point events, string-table reuse, random multi-kind chunks,
// plus truncations and bit flips — runs on every plain `go test`, so CI
// exercises the interesting paths without a fuzzing engine.
func FuzzDecodeChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RLSC"))
	f.Add([]byte("NOTATRACE"))
	f.Add(seedChunk(nil))
	f.Add(seedChunk([]Event{
		{Kind: KindOverhead, Overhead: OverheadCUPTI, Proc: 0, Start: 5, End: 5, Name: "cudaLaunchKernel"},
		{Kind: KindTransition, Proc: 1, Start: 7, End: 7, Name: TransPythonToBackend},
	}))
	full := seedChunk(randomEvents(rand.New(rand.NewSource(31)), 64))
	f.Add(full)
	f.Add(full[:len(full)/2])                   // truncation mid-stream
	f.Add(append([]byte("RLSC\x01\xff"), 0xff)) // huge count, no data
	// A header claiming 2^62 events over a 20-byte frame: the decoder sizes
	// its output by the header, so the claim must be capped by the frame.
	huge := binary.AppendUvarint([]byte("RLSC\x01"), 1<<62)
	f.Add(append(huge, make([]byte, 20-len(huge))...))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(append(bytes.Clone(full), 1, 2, 3)) // garbage after the last record

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeChunkBytes(data, nil, nil)
		// An event takes at least one byte of either format, seven of v1.
		if cap(events) > len(data) {
			t.Fatalf("a %d-byte frame made the decoder allocate room for %d events", len(data), cap(events))
		}
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		for i, e := range events {
			if e.End < e.Start {
				t.Fatalf("decoder accepted event %d with End %d < Start %d", i, e.End, e.Start)
			}
		}
		frame, err := encodeChunkV1(events)
		if err != nil {
			t.Fatalf("re-encoding %d decoded events failed: %v", len(events), err)
		}
		again, err := DecodeChunkBytes(frame, nil, nil)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if len(events) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip not a fixed point:\n first %+v\nsecond %+v", events, again)
		}
	})
}

// seedChunkV2 encodes events into a columnar frame for the fuzz corpus.
func seedChunkV2(events []Event) []byte {
	frame, err := encodeChunkV2(events)
	if err != nil {
		panic(err)
	}
	return frame
}

// FuzzDecodeChunkV2 is FuzzDecodeChunk for the columnar format: the decoder
// must never panic on garbage — truncated dictionaries, overflowing column
// lengths, dangling dictionary references, huge counts — and anything it
// accepts must be a fixed point of the v2 round trip. The seeds cover every
// structural hazard: truncation at each region boundary, bit flips in the
// column directory, and a count far larger than the column data could hold.
func FuzzDecodeChunkV2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RLSC"))
	f.Add([]byte("RLSC\x02"))
	f.Add(seedChunkV2(nil))
	f.Add(seedChunkV2([]Event{
		{Kind: KindOverhead, Overhead: OverheadCUPTI, Proc: 0, Start: 5, End: 5, Name: "cudaLaunchKernel"},
		{Kind: KindTransition, Proc: 1, Start: 7, End: 7, Name: TransPythonToBackend},
	}))
	full := seedChunkV2(randomEvents(rand.New(rand.NewSource(31)), 64))
	f.Add(full)
	for _, cut := range []int{5, 6, 8, len(full) / 4, len(full) / 2, len(full) - 1} {
		if cut >= 0 && cut < len(full) {
			f.Add(full[:cut])
		}
	}
	f.Add(append([]byte("RLSC\x02\xff"), 0xff)) // huge count, no columns
	flipped := append([]byte(nil), full...)
	flipped[6] ^= 0x7f // mangle the dictionary/column directory region
	f.Add(flipped)
	flipped2 := append([]byte(nil), full...)
	flipped2[len(flipped2)/3] ^= 0x40
	f.Add(flipped2)
	f.Add(append(bytes.Clone(full), 1, 2, 3)) // garbage after the last column

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeChunkBytes(data, nil, nil)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		for i, e := range events {
			if e.End < e.Start {
				t.Fatalf("decoder accepted event %d with End %d < Start %d", i, e.End, e.Start)
			}
		}
		frame, err := encodeChunkV2(events)
		if err != nil {
			t.Fatalf("re-encoding %d decoded events failed: %v", len(events), err)
		}
		again, err := DecodeChunkBytes(frame, nil, nil)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if len(events) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip not a fixed point:\n first %+v\nsecond %+v", events, again)
		}
	})
}

// scannedMarker is one record as the overhead scan reports it.
type scannedMarker struct {
	proc ProcID
	at   vclock.Time
	kind OverheadKind
	name string
}

// FuzzOverheadScan holds the two walks that do not keep every record — the
// marker scan and the walk that skips the markers — to the decoder they stand
// in for: on arbitrary bytes each must accept exactly the frames
// DecodeChunkBytes accepts — the correction pre-pass may not wave through a
// chunk the analysis pass will then refuse, nor the reverse — and count the
// same events. The scan must report exactly the KindOverhead records of the
// decoded list, in order; the skipping walk must return the decoded list
// without them, sized as EventBytes sizes it. The seeds are both decoders'
// own: every truncation, bit flip and hostile header, in v1 and v2.
func FuzzOverheadScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RLSC\x01\xff\xff"))
	f.Add([]byte("RLSC\x02\xff\xff"))
	events := randomEvents(rand.New(rand.NewSource(31)), 64)
	events = append(events,
		Event{Kind: KindOverhead, Overhead: OverheadCUPTI, Proc: 3, Start: 5, End: 5, Name: "cudaLaunchKernel"},
		Event{Kind: KindOverhead, Overhead: OverheadAnnotation, Proc: 3, Start: 9, End: 9},
		Event{Kind: KindOverhead, Proc: 4, Start: 9, End: 12, Name: "wide"}, // not a point, no overhead kind: still a marker
	)
	for _, full := range [][]byte{seedChunk(nil), seedChunkV2(nil), seedChunk(events), seedChunkV2(events)} {
		f.Add(full)
		f.Add(append(bytes.Clone(full), 1, 2, 3))
		for _, cut := range []int{5, 6, 8, len(full) / 4, len(full) / 2, len(full) - 1} {
			if cut < len(full) {
				f.Add(full[:cut])
			}
		}
		for _, at := range []int{6, len(full) / 3, len(full) - 2} {
			if at < len(full) {
				flipped := bytes.Clone(full)
				flipped[at] ^= 0x40
				f.Add(flipped)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		events, decodeErr := DecodeChunkBytes(data, nil, nil)
		var got []scannedMarker
		_, n, _, scanErr := walkChunk(data, nil, nil, nil, nil, walkScan, func(proc ProcID, at vclock.Time, kind OverheadKind, name string) {
			got = append(got, scannedMarker{proc, at, kind, name})
		})
		kept, walked, keptBytes, skipErr := walkChunk(data, nil, nil, nil, nil, walkSkipOverhead, nil)
		if (decodeErr == nil) != (scanErr == nil) {
			t.Fatalf("decode says %v, scan says %v", decodeErr, scanErr)
		}
		if (decodeErr == nil) != (skipErr == nil) {
			t.Fatalf("decode says %v, the skipping walk says %v", decodeErr, skipErr)
		}
		if walked != n {
			t.Fatalf("the skipping walk counted %d records, the scan %d", walked, n)
		}
		if decodeErr != nil {
			return
		}
		if n != len(events) {
			t.Fatalf("scan counted %d events, decode returned %d", n, len(events))
		}
		var (
			want      []scannedMarker
			wantKept  []Event
			wantBytes int64
		)
		for _, e := range events {
			if e.Kind == KindOverhead {
				want = append(want, scannedMarker{e.Proc, e.Start, e.Overhead, e.Name})
			} else {
				wantKept = append(wantKept, e)
				wantBytes += int64(eventBytes(e))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan reported %+v, the decoded chunk holds %+v", got, want)
		}
		if len(kept) != len(wantKept) || len(kept) > 0 && !reflect.DeepEqual(kept, wantKept) || keptBytes != wantBytes {
			t.Fatalf("the skipping walk kept %+v (%d B), the decoded chunk without markers is %+v (%d B)", kept, keptBytes, wantKept, wantBytes)
		}
	})
}

// FuzzV1V2RoundTrip derives a pseudo-random event list and asserts that the
// row and columnar encodings are interchangeable: both decode back to the
// exact source list, so any analysis sees identical events regardless of
// which format a chunk happens to be stored in.
func FuzzV1V2RoundTrip(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(1), uint16(1))
	f.Add(int64(42), uint16(300))
	f.Add(int64(-7), uint16(4096))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		if size > 8192 {
			size = 8192
		}
		events := randomEvents(rand.New(rand.NewSource(seed)), int(size))
		v1 := seedChunk(events)
		v2 := seedChunkV2(events)
		gotV1, err := DecodeChunkBytes(v1, nil, nil)
		if err != nil {
			t.Fatalf("decode v1: %v", err)
		}
		gotV2, err := DecodeChunkBytes(v2, nil, nil)
		if err != nil {
			t.Fatalf("decode v2: %v", err)
		}
		if len(events) == 0 {
			if len(gotV1) != 0 || len(gotV2) != 0 {
				t.Fatalf("empty chunk decoded to %d/%d events", len(gotV1), len(gotV2))
			}
			return
		}
		if !reflect.DeepEqual(events, gotV1) {
			t.Fatal("v1 round trip mismatch")
		}
		if !reflect.DeepEqual(events, gotV2) {
			t.Fatal("v2 round trip mismatch")
		}
	})
}

// FuzzChunkRoundTrip derives a pseudo-random event list from the fuzz input
// and asserts the encode/decode round trip exactly — the property-test
// complement to FuzzDecodeChunk, fuzzing the encoder side (empty chunks and
// point events included via the zero seeds).
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add(int64(0), uint16(0))
	f.Add(int64(1), uint16(1))
	f.Add(int64(42), uint16(300))
	f.Add(int64(-7), uint16(4096))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		if size > 8192 {
			size = 8192
		}
		events := randomEvents(rand.New(rand.NewSource(seed)), int(size))
		frame, err := encodeChunkV1(events)
		if err != nil {
			t.Fatalf("encodeChunkV1: %v", err)
		}
		got, err := DecodeChunkBytes(frame, nil, nil)
		if err != nil {
			t.Fatalf("DecodeChunkBytes: %v", err)
		}
		if len(events) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty chunk decoded to %d events", len(got))
			}
			return
		}
		if !reflect.DeepEqual(events, got) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzSidecar feeds arbitrary bytes to the sidecar parser — the one decoder
// of files that arrive from outside the program which had no fuzz target.
// It must never panic; what it allocates is bounded by the input's length,
// whatever process or phase count the input claims; and a binary document it
// accepts is the canonical one, re-encoding to the very same bytes (a legacy
// JSON document it accepts re-encodes to a binary one that parses back to
// the same index). Seeds: both encodings of a real index, with and without
// phases, and truncations of each.
func FuzzSidecar(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(sidecarMagic))
	f.Add([]byte("{}"))
	// 2^62 processes, 2^62 phase events: nine bytes each.
	f.Add(binary.AppendUvarint([]byte(sidecarMagic+"\x01\x00\x00"), 1<<62))
	f.Add(append([]byte(sidecarMagic+"\x01\x00\x00\x00"), binary.AppendUvarint([]byte("RLSC\x01"), 1<<62)...))
	for _, events := range [][]Event{
		sidecarEvents(rand.New(rand.NewSource(31)), 64),
		workloadishEvents(rand.New(rand.NewSource(31)), 64), // no phases
	} {
		ix := BuildChunkIndex(events, 4096)
		legacy, err := json.Marshal(ix)
		if err != nil {
			f.Fatal(err)
		}
		for _, doc := range [][]byte{mustSidecar(f, ix), legacy} {
			f.Add(doc)
			for _, cut := range []int{5, len(doc) / 3, len(doc) / 2, len(doc) - 1} {
				f.Add(doc[:cut])
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var ix ChunkIndex
		err := parseSidecar(data, &ix, nil)
		// A process entry takes four bytes, a phase event seven; JSON more.
		if len(ix.Procs) > len(data)/4 || cap(ix.Phases) > len(data) {
			t.Fatalf("a %d-byte sidecar made the parser hold %d processes and room for %d phases", len(data), len(ix.Procs), cap(ix.Phases))
		}
		if err != nil {
			return // rejected input: the Reader rebuilds the index from the chunk
		}
		again, err := ix.AppendBinary(nil)
		if err != nil {
			return // only a legacy document can carry a phase that ends before it starts
		}
		if bytes.HasPrefix(data, []byte(sidecarMagic)) {
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted sidecar is not canonical:\n   input %x\nre-coded %x", data, again)
			}
			return
		}
		// JSON can spell what the binary encoding cannot: a negative count.
		negative := ix.Events < 0 || ix.Bytes < 0
		for _, sp := range ix.Procs {
			negative = negative || sp.Events < 0
		}
		if negative {
			return
		}
		var back ChunkIndex
		if err := parseSidecar(again, &back, nil); err != nil {
			t.Fatalf("a legacy document's binary re-encoding does not parse: %v", err)
		}
		if ix.Procs == nil {
			ix.Procs = map[ProcID]ProcSpan{} // "procs": null
		}
		if len(ix.Phases) == 0 {
			ix.Phases = nil
		}
		if !reflect.DeepEqual(&ix, &back) {
			t.Fatalf("legacy document %+v came back from its binary form as %+v", ix, back)
		}
	})
}

// encodeNames is the name pool of an encoder program: the empty name, 199
// distinct names each in its own allocation — more than a nameCache has
// slots, so they collide in it — and 56 of those names again at other
// addresses, which miss the cache and must still find their reference.
var encodeNames = func() []string {
	names := []string{""}
	for i := 1; i < 200; i++ {
		names = append(names, fmt.Sprintf("name-%03d", i))
	}
	for i := 1; len(names) < 256; i++ {
		names = append(names, strings.Clone(names[i]))
	}
	return names
}()

// encodeRecord appends one event to an encoder program: kind, category,
// overhead, a little-endian int16 proc and a name-pool index as six bytes,
// then the start delta as a varint and the duration as a uvarint.
func encodeRecord(data []byte, kind, cat, overhead byte, proc int16, delta int64, dur uint64, name byte) []byte {
	data = append(data, kind, cat, overhead, byte(proc), byte(uint16(proc)>>8), name)
	return binary.AppendUvarint(binary.AppendVarint(data, delta), dur)
}

// decodeEncodeProgram turns fuzz bytes into the events encodeRecord wrote,
// stopping at the first incomplete record.
func decodeEncodeProgram(data []byte) []Event {
	var events []Event
	var start int64
	for len(data) >= 6 {
		e := Event{
			Kind: EventKind(data[0]), Cat: Category(data[1]), Overhead: OverheadKind(data[2]),
			Proc: ProcID(int16(binary.LittleEndian.Uint16(data[3:]))),
			Name: encodeNames[data[5]],
		}
		delta, n := binary.Varint(data[6:])
		if n <= 0 {
			break
		}
		dur, m := binary.Uvarint(data[6+n:])
		if m <= 0 {
			break
		}
		data = data[6+n+m:]
		start += delta
		e.Start = vclock.Time(start)
		e.End = e.Start + vclock.Time(dur)
		events = append(events, e)
	}
	return events
}

// FuzzEncodeV1MatchesReference holds the v1 encoder to its reference: for
// any event list, appendChunkV1 fails exactly when referenceEncodeChunkV1
// does and otherwise writes the same bytes. The seeds sit on every edge of
// the fast paths: procs across 128 and negative, zigzag start deltas at
// 63/64 and 8191/8192 either sign, durations at 0x7f/0x80/0x3fff/0x4000,
// empty names, and more distinct names than the cache has slots.
func FuzzEncodeV1MatchesReference(f *testing.F) {
	f.Add([]byte{})
	var procs []byte
	for _, p := range []int16{0, 1, 127, 128, 255, 16383, 16384, 32767, -1, -128, -32768} {
		procs = encodeRecord(procs, byte(KindCPU), byte(CatPython), 0, p, 5, 3, 1)
	}
	f.Add(procs)
	var deltas []byte
	for _, d := range []int64{0, 63, 64, -64, -65, 8191, 8192, -8192, -8193, 1 << 20, -(1 << 20), 1 << 40} {
		deltas = encodeRecord(deltas, byte(KindGPU), byte(CatGPUKernel), 0, 2, d, 1, 2)
	}
	f.Add(deltas)
	var durs []byte
	for _, d := range []uint64{0, 0x7f, 0x80, 0x3fff, 0x4000, 0x1fffff, 0x200000, 1 << 40, 1 << 63} {
		durs = encodeRecord(durs, byte(KindOp), 0, 0, 0, 1, d, 3)
	}
	f.Add(durs)
	var empty []byte
	for i, name := range []byte{0, 0, 4, 0, 4, 4, 0} {
		empty = encodeRecord(empty, byte(KindTransition), 0, 0, 1, int64(i), 0, name)
	}
	f.Add(empty)
	var many []byte
	for round := 0; round < 3; round++ {
		for name := 0; name < 256; name++ {
			many = encodeRecord(many, byte(KindOverhead), 0, byte(OverheadCUPTI), int16(name%3), 7, 0, byte(name*(round+1)))
		}
	}
	f.Add(many)
	f.Add(encodeRecord(bytes.Clone(procs), byte(KindCPU), 0, 0, 0, -1, 1<<63, 1)) // End < Start: both refuse
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeEncodeProgram(data)
		var want bytes.Buffer
		wantErr := referenceEncodeChunkV1(&want, events)
		got, err := appendChunkV1(nil, events)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("encoder error %v, reference error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d events: encoder wrote\n%x\nthe reference\n%x", len(events), got, want.Bytes())
		}
	})
}
