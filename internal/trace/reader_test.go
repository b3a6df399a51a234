package trace

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeRandomTrace persists n random events in tiny chunks and returns the
// directory and the events in write order.
func writeRandomTrace(t *testing.T, seed int64, n, chunkBytes int) (string, []Event) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := NewWriter(dir, chunkBytes)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	events := randomEvents(rand.New(rand.NewSource(seed)), n)
	w.Append(events...)
	if err := w.Close(Meta{Workload: "reader-test"}); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir, events
}

func TestReaderStreamsAllChunks(t *testing.T) {
	dir, events := writeRandomTrace(t, 21, 1500, 2048)
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if r.Meta().Workload != "reader-test" {
		t.Fatalf("meta: %+v", r.Meta())
	}
	if r.NumChunks() < 2 {
		t.Fatalf("want multiple chunks, got %d", r.NumChunks())
	}
	// Stream with one reusable buffer; concatenation in chunk order must
	// reproduce the write order exactly.
	var got []Event
	var buf []Event
	for i := 0; i < r.NumChunks(); i++ {
		buf, err = r.ReadChunk(i, buf[:0])
		if err != nil {
			t.Fatalf("ReadChunk(%d): %v", i, err)
		}
		got = append(got, buf...)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("streamed %d events != written %d events", len(got), len(events))
	}
}

func TestWriterEmitsSidecars(t *testing.T) {
	dir, _ := writeRandomTrace(t, 22, 1500, 2048)
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	for i := 0; i < r.NumChunks(); i++ {
		side := filepath.Join(dir, sidecarPath(r.ChunkName(i)))
		if _, err := os.Stat(side); err != nil {
			t.Fatalf("chunk %d: missing sidecar: %v", i, err)
		}
		ix, err := r.Index(i)
		if err != nil {
			t.Fatalf("Index(%d): %v", i, err)
		}
		events, err := r.ReadChunk(i, nil)
		if err != nil {
			t.Fatalf("ReadChunk(%d): %v", i, err)
		}
		want := BuildChunkIndex(events, ix.Bytes)
		if !reflect.DeepEqual(ix, want) {
			t.Fatalf("chunk %d: sidecar index %+v disagrees with rebuilt index %+v", i, ix, want)
		}
		if fi, err := os.Stat(filepath.Join(dir, r.ChunkName(i))); err != nil || fi.Size() != ix.Bytes {
			t.Fatalf("chunk %d: sidecar bytes %d != file size (%v, %v)", i, ix.Bytes, fi, err)
		}
	}
}

func TestReaderIndexFallbackWithoutSidecar(t *testing.T) {
	dir, _ := writeRandomTrace(t, 23, 800, 2048)
	sidecars, err := filepath.Glob(filepath.Join(dir, "*"+sidecarSuffix))
	if err != nil || len(sidecars) == 0 {
		t.Fatalf("expected sidecars: %v (err %v)", sidecars, err)
	}
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*ChunkIndex, r.NumChunks())
	for i := range want {
		if want[i], err = r.Index(i); err != nil {
			t.Fatalf("Index(%d): %v", i, err)
		}
	}
	for _, s := range sidecars {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		got, err := r.Index(i)
		if err != nil {
			t.Fatalf("fallback Index(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("chunk %d: fallback index %+v != sidecar index %+v", i, got, want[i])
		}
	}
}

// TestReadDirTruncatedChunk asserts the satellite fix: a truncated chunk
// file surfaces as a wrapped *ChunkError naming the offending file, not a
// bare decode error.
func TestReadDirTruncatedChunk(t *testing.T) {
	dir, _ := writeRandomTrace(t, 24, 1500, 2048)
	chunks, err := filepath.Glob(filepath.Join(dir, "*"+chunkSuffix))
	if err != nil || len(chunks) < 2 {
		t.Fatalf("want multiple chunks: %v (err %v)", chunks, err)
	}
	victim := chunks[len(chunks)/2]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadDir(dir)
	if err == nil {
		t.Fatal("ReadDir succeeded on a truncated chunk")
	}
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *ChunkError", err, err)
	}
	if ce.Chunk != filepath.Base(victim) {
		t.Fatalf("error names chunk %q, want %q", ce.Chunk, filepath.Base(victim))
	}
	if ce.Dir != dir {
		t.Fatalf("error names dir %q, want %q", ce.Dir, dir)
	}
}

// TestReadDirCorruptMagic covers corruption (bad bytes, not truncation).
func TestReadDirCorruptMagic(t *testing.T) {
	dir, _ := writeRandomTrace(t, 25, 300, 0)
	chunks, err := filepath.Glob(filepath.Join(dir, "*"+chunkSuffix))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunks: %v (err %v)", chunks, err)
	}
	if err := os.WriteFile(chunks[0], []byte("GARBAGEGARBAGE"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *ChunkError
	if _, err := ReadDir(dir); !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ChunkError", err)
	}
}

// TestWriterAppendBulkChunks verifies one large Append still produces
// size-bounded chunks (the flush threshold is checked per event), which is
// what makes Profiler.WriteTo output streamable.
func TestWriterAppendBulkChunks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := NewWriter(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	events := randomEvents(rand.New(rand.NewSource(26)), 2000)
	w.Append(events...) // single call
	if err := w.Close(Meta{Workload: "bulk"}); err != nil {
		t.Fatal(err)
	}
	if w.nchunks < 2 {
		t.Fatalf("bulk Append produced %d chunks, want several", w.nchunks)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(events) {
		t.Fatalf("read %d events, want %d", len(got.Events), len(events))
	}
}

// TestReadDirPresizesOnce: ReadDir sizes the whole-trace buffer from the
// sidecars' event counts, so decoding chunk after chunk into it never regrows
// it — and a sidecar claiming more events than its chunk's bytes could encode
// cannot force the allocation, nor does a missing one cost more than the
// growth it always cost.
func TestReadDirPresizesOnce(t *testing.T) {
	dir, events := writeRandomTrace(t, 29, 3000, 2048)
	tr, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != len(events) || cap(tr.Events) != len(events) {
		t.Fatalf("read %d events into room for %d, wrote %d", len(tr.Events), cap(tr.Events), len(events))
	}
	want := tr.Events

	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var chunkBytes int64
	for i := 0; i < r.NumChunks(); i++ {
		chunkBytes += int64(len(readFile(t, r.paths[i])))
	}
	// Chunk 0's sidecar now claims 2^40 events; chunk 1's is gone.
	ix, err := r.Index(0)
	if err != nil {
		t.Fatal(err)
	}
	hostile := *ix
	hostile.Events = 1 << 40
	if err := os.WriteFile(r.sidePaths[0], mustSidecar(t, &hostile), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(r.sidePaths[1]); err != nil {
		t.Fatal(err)
	}
	tr, err = ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Events, want) {
		t.Fatal("a lying and a missing sidecar changed what ReadDir returns")
	}
	// Append growth can overshoot by its growth factor, never by 2^40.
	if limit := 2 * int(chunkBytes/v1MinEventBytes); cap(tr.Events) > limit {
		t.Fatalf("a sidecar claiming 2^40 events made ReadDir allocate room for %d (chunks hold %d bytes)", cap(tr.Events), chunkBytes)
	}
}
