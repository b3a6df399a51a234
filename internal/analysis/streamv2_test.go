package analysis

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// convertTrace rewrites dir into a sibling directory in the columnar format,
// verified by ConvertDir's round-trip digest.
func convertTrace(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "converted-v2")
	if _, err := trace.ConvertDir(context.Background(), dir, dst); err != nil {
		t.Fatalf("ConvertDir: %v", err)
	}
	return dst
}

// mixTrace copies dir and re-encodes every other chunk as columnar, so the
// result interleaves v1 and v2 chunk files in one directory.
func mixTrace(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "mixed")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := trace.OpenDir(dst)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	var buf []trace.Event
	for i := 0; i < r.NumChunks(); i += 2 {
		if buf, err = r.ReadChunk(i, buf[:0]); err != nil {
			t.Fatalf("ReadChunk(%d): %v", i, err)
		}
		chunk, _, err := trace.EncodeEventsFormat(buf, trace.FormatV2)
		if err != nil {
			t.Fatalf("EncodeEventsFormat: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dst, r.ChunkName(i)), chunk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRunStreamFormatV2MatchesV1 is the format-parity property test: for
// randomized multi-process traces, streaming an all-v2 conversion and a
// mixed v1/v2 directory must both be byte-identical to the materialized Run
// over the original v1 directory, for Workers 1..8 with and without a memory
// budget. The columnar path routes events straight out of the columns, so
// this pins decode, planning, and shard routing all at once.
func TestRunStreamFormatV2MatchesV1(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)))
		v1dir := writeTrace(t, tr, 1<<10)
		loaded, err := trace.ReadDir(v1dir)
		if err != nil {
			t.Fatalf("seed %d: ReadDir: %v", seed, err)
		}
		want := dumpAll(Run(loaded, Options{Workers: 1}))
		dirs := map[string]string{
			"v2":    convertTrace(t, v1dir),
			"mixed": mixTrace(t, v1dir),
		}
		for label, dir := range dirs {
			for workers := 1; workers <= 8; workers++ {
				for _, budget := range []int64{0, 1 << 12} {
					got, _ := streamDir(t, dir, Options{Workers: workers, MaxResidentBytes: budget})
					if dumpAll(got) != want {
						t.Fatalf("seed %d %s workers %d budget %d: result diverges from v1 materialized Run",
							seed, label, workers, budget)
					}
				}
			}
		}
	}
}

// TestRunStreamWarmReaderReuse pins the serving pattern (and the benchmark
// shape): repeated RunStream calls over one long-lived Reader — whose index
// cache, frame buffer, and column scratch all carry over — must keep
// producing results byte-identical to the materialized Run, in both formats.
func TestRunStreamWarmReaderReuse(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)))
	v1dir := writeTrace(t, tr, 1<<10)
	loaded, err := trace.ReadDir(v1dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	want := dumpAll(Run(loaded, Options{Workers: 1}))
	for _, dir := range []string{v1dir, convertTrace(t, v1dir)} {
		r, err := trace.OpenDir(dir)
		if err != nil {
			t.Fatalf("OpenDir: %v", err)
		}
		for pass := 0; pass < 3; pass++ {
			res, _, err := RunStream(r, Options{Workers: 2})
			if err != nil {
				t.Fatalf("pass %d: RunStream: %v", pass, err)
			}
			if dumpAll(res) != want {
				t.Fatalf("pass %d over %s: warm-Reader result diverges from materialized Run", pass, dir)
			}
		}
	}
}

// TestRunStreamCorruptV2Chunk mirrors TestRunStreamCorruptChunk on the
// columnar path: a truncated v2 chunk must surface as a *trace.ChunkError
// naming the offending file, never a panic.
func TestRunStreamCorruptV2Chunk(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(13)))
	v1dir := writeTrace(t, tr, 1<<10)
	dir := convertTrace(t, v1dir)
	chunks, err := filepath.Glob(filepath.Join(dir, "*.rlstrace"))
	if err != nil || len(chunks) < 2 {
		t.Fatalf("want multiple chunks, got %v (err %v)", chunks, err)
	}
	victim := chunks[1]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	_, _, err = RunStream(r, Options{Workers: 4})
	var ce *trace.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *trace.ChunkError", err)
	}
	if ce.Chunk != filepath.Base(victim) {
		t.Fatalf("error names chunk %q, want %q", ce.Chunk, filepath.Base(victim))
	}
}
