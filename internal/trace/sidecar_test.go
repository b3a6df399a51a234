package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/vclock"
)

// sidecarEvents is randomEvents moved onto what a sidecar must also carry:
// timestamps on both sides of zero and process IDs that are sparse, large
// and negative.
func sidecarEvents(rng *rand.Rand, n int) []Event {
	events := randomEvents(rng, n)
	shift := vclock.Duration(-rng.Int63n(2_000_000 * int64(n+1)))
	stride := ProcID(rng.Intn(1<<20) - 1<<19)
	for i := range events {
		events[i].Start = events[i].Start.Add(shift)
		events[i].End = events[i].End.Add(shift)
		events[i].Proc *= stride
	}
	return events
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSidecarRoundTripProperty: parsing what AppendBinary wrote gives back
// the index BuildChunkIndex derived — phase names, negative timestamps and
// negative process IDs included — and encoding the parsed index gives back
// the same bytes.
func TestSidecarRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := sidecarEvents(rng, rng.Intn(300))
		want := BuildChunkIndex(events, rng.Int63())
		data := mustSidecar(t, want)
		var got ChunkIndex
		if err := parseSidecar(data, &got, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("seed %d: parsed %+v, want %+v", seed, got, want)
		}
		if again := mustSidecar(t, &got); !bytes.Equal(again, data) {
			t.Fatalf("seed %d: the parsed index re-encodes to different bytes", seed)
		}
		// The document json.Marshal used to write parses to the same index.
		legacy, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if err := parseSidecar(legacy, &got, NewInterner()); err != nil {
			t.Fatalf("seed %d: legacy document: %v", seed, err)
		}
		if len(got.Phases) == 0 {
			got.Phases = nil // a reused index keeps its empty slice
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("seed %d: legacy document parsed to %+v, want %+v", seed, got, want)
		}
	}
}

// TestSidecarParseAllocs pins the plan path's per-chunk cost: a warm parse of
// a phase-free sidecar into a reused ChunkIndex allocates nothing.
func TestSidecarParseAllocs(t *testing.T) {
	events := workloadishEvents(rand.New(rand.NewSource(3)), 2000)
	for i := range events {
		events[i].Proc = ProcID(i % 7)
	}
	data := mustSidecar(t, BuildChunkIndex(events, 12345))
	var ix ChunkIndex
	in := NewInterner()
	parse := func() {
		if err := parseSidecar(data, &ix, in); err != nil {
			t.Fatal(err)
		}
	}
	parse()
	if allocs := testing.AllocsPerRun(100, parse); allocs != 0 {
		t.Fatalf("warm sidecar parse allocated %v times, want 0", allocs)
	}
	if len(ix.Procs) != 7 || ix.Events != len(events) {
		t.Fatalf("parsed %+v", ix)
	}
}

// TestSidecarRejectsWhatTheEncoderNeverWrites: the encoding is canonical, so
// every second spelling of an index is refused (and the Reader then rebuilds
// the index from the chunk).
func TestSidecarRejectsWhatTheEncoderNeverWrites(t *testing.T) {
	phase := Event{Kind: KindPhase, Proc: 1, Start: -5, End: 9, Name: "p"}
	good := mustSidecar(t, BuildChunkIndex([]Event{{Kind: KindCPU, Cat: CatPython, Proc: 1, Start: 1, End: 2}, phase}, 40))
	var ix ChunkIndex
	if err := parseSidecar(good, &ix, nil); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"magic only":         []byte(sidecarMagic),
		"future version":     []byte(sidecarMagic + "\x02\x00\x00\x00"),
		"padded varint":      []byte(sidecarMagic + "\x01\x80\x00\x00\x00"),
		"procs out of order": []byte(sidecarMagic + "\x01\x02\x00\x02\x04\x00\x00\x01\x02\x00\x00\x01"),
		"proc twice":         []byte(sidecarMagic + "\x01\x02\x00\x02\x02\x00\x00\x01\x02\x00\x00\x01"),
		"proc beyond int32":  []byte(sidecarMagic + "\x01\x01\x00\x01\x80\x80\x80\x80\x10\x00\x00\x01"),
		"count beyond data":  []byte(sidecarMagic + "\x01\x00\x00\xff\xff\xff\xff\x0f"),
		"trailing byte":      append(append([]byte(nil), good...), 0),
		"empty phase frame":  append([]byte(sidecarMagic+"\x01\x00\x00\x00"), seedChunk(nil)...),
		"v2 phase frame":     append([]byte(sidecarMagic+"\x01\x00\x00\x00"), seedChunkV2([]Event{phase})...),
		"truncated":          good[:len(good)-1],
		"legacy, no version": []byte(`{"events":1}`),
		"legacy, not JSON":   []byte(`{"version":1`),
	} {
		if err := parseSidecar(data, &ix, nil); err == nil {
			t.Errorf("%s: parsed to %+v", name, ix)
		}
	}
}

// legacyFixture is a directory the parent of the binary sidecar encoding
// wrote: three v1 chunks, three processes (one starting below zero), phase
// names with quotes in them, and JSON sidecars.
const (
	legacyFixture       = "testdata/legacy-json-sidecars"
	legacyFixtureDigest = "8cf67755eb7866343a9d9859a0e8817da7ddde1d25d4a35bfe99cb072c5167a7"
)

// TestLegacyJSONSidecarsStayReadable: a trace directory written before the
// binary encoding is read, digested and converted as it always was.
func TestLegacyJSONSidecarsStayReadable(t *testing.T) {
	r, err := OpenDir(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() != 3 {
		t.Fatalf("fixture has %d chunks, want 3", r.NumChunks())
	}
	phases := 0
	for i := 0; i < r.NumChunks(); i++ {
		// The sidecar itself must parse: a fallback decode would hide a
		// broken legacy branch behind an equal index.
		var parsed ChunkIndex
		data := readFile(t, filepath.Join(legacyFixture, sidecarPath(r.ChunkName(i))))
		if err := parseSidecar(data, &parsed, nil); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		got, err := r.Index(i)
		if err != nil {
			t.Fatal(err)
		}
		events, err := r.ReadChunk(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		frame := readFile(t, filepath.Join(legacyFixture, r.ChunkName(i)))
		if want := BuildChunkIndex(events, int64(len(frame))); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(&parsed, want) {
			t.Fatalf("chunk %d: sidecar %+v, parsed %+v, rebuilt %+v", i, got, parsed, want)
		}
		phases += len(got.Phases)
	}
	if phases == 0 {
		t.Fatal("the fixture exercises no phase events")
	}
	if digest, err := DirDigest(legacyFixture); err != nil || digest != legacyFixtureDigest {
		t.Fatalf("DirDigest = %s, %v; recorded %s", digest, err, legacyFixtureDigest)
	}
	// Conversion verifies against DirDigest(src), which covers the JSON
	// sidecars byte for byte; the destination gets binary ones.
	dst := filepath.Join(t.TempDir(), "v2")
	stats, err := ConvertDir(context.Background(), legacyFixture, dst)
	if err != nil || stats.SrcDigest != legacyFixtureDigest {
		t.Fatalf("ConvertDir: %+v, %v", stats, err)
	}
	if data := readFile(t, filepath.Join(dst, sidecarPath(r.ChunkName(0)))); !bytes.HasPrefix(data, []byte(sidecarMagic)) {
		t.Fatalf("converted sidecar is not binary: %q", data)
	}
	// ...and a directory with binary sidecars verifies the same way, landing
	// on the digest it started from.
	if again, err := ConvertDir(context.Background(), dst, filepath.Join(t.TempDir(), "v2-again")); err != nil || again.DstDigest != stats.DstDigest {
		t.Fatalf("ConvertDir again: %+v, %v; want destination digest %s", again, err, stats.DstDigest)
	}
}
