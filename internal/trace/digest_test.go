package trace

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/vclock"
)

// digestTestDir writes a small multi-chunk trace directory.
func digestTestDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	w, err := NewWriter(dir, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ts := vclock.Time(i * 100)
		w.Append(Event{
			Proc: ProcID(i % 3), Kind: KindCPU, Cat: CatPython,
			Start: ts, End: ts + 50, Name: "step",
		})
	}
	meta := Meta{Workload: "digest-test", Config: Full(), Procs: map[ProcID]ProcInfo{
		0: {Name: "trainer", Parent: -1}, 1: {Name: "w1", Parent: 0}, 2: {Name: "w2", Parent: 0},
	}}
	if err := w.Close(meta); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDirDigestStable(t *testing.T) {
	dir := digestTestDir(t)
	d1, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not 64 hex chars", d1)
	}
	d2, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not stable across calls: %s vs %s", d1, d2)
	}
}

func TestDirDigestIgnoresForeignFiles(t *testing.T) {
	dir := digestTestDir(t)
	before, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("scratch"), 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("digest changed when a non-trace file was added")
	}
}

func TestDirDigestDetectsContentChanges(t *testing.T) {
	dir := digestTestDir(t)
	before, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the first chunk file.
	names, err := filepath.Glob(filepath.Join(dir, "*"+chunkSuffix))
	if err != nil || len(names) < 2 {
		t.Fatalf("expected multiple chunks, got %v (err %v)", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("digest did not change when chunk content changed")
	}
}

func TestDirDigestDetectsMetadataChanges(t *testing.T) {
	dir := digestTestDir(t)
	before, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, metaFileName)
	data, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("digest did not change when metadata changed")
	}
}

func TestDirDigestEmptyDir(t *testing.T) {
	if _, err := DirDigest(t.TempDir()); err == nil {
		t.Fatal("expected an error digesting a directory with no trace files")
	}
}

// TestSnapshotIsOneRead: ReadSnapshot gives DirDigest's digest and what a
// Reader reads — the metadata, and each chunk's index from its binary or
// legacy JSON sidecar or, without one, from the chunk — and a sealed
// NewDirSink's prints are the snapshot's of the directory it wrote.
func TestSnapshotIsOneRead(t *testing.T) {
	dir, events := writeRandomTrace(t, 31, 900, 2048)
	sidecars, err := filepath.Glob(filepath.Join(dir, "*"+sidecarSuffix))
	if err != nil || len(sidecars) < 3 {
		t.Fatalf("expected at least three sidecars: %v (err %v)", sidecars, err)
	}
	check := func(what string) {
		t.Helper()
		snap, err := ReadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := DirDigest(dir); err != nil || snap.Digest != want {
			t.Fatalf("%s: snapshot digest %s, DirDigest %s (%v)", what, snap.Digest, want, err)
		}
		r, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap.Meta, r.Meta()) || len(snap.Indexes) != r.NumChunks() {
			t.Fatalf("%s: snapshot meta %+v over %d chunks, Reader %+v over %d", what, snap.Meta, len(snap.Indexes), r.Meta(), r.NumChunks())
		}
		for i := range snap.Indexes {
			want, err := r.Index(i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&snap.Indexes[i], want) {
				t.Fatalf("%s: chunk %d: snapshot index %+v, Reader's %+v", what, i, snap.Indexes[i], *want)
			}
		}
	}
	check("binary sidecars")
	legacy, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(&legacy.Indexes[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecars[0], js, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(sidecars[1]); err != nil {
		t.Fatal(err)
	}
	check("a JSON sidecar and a missing one")

	streamed := t.TempDir()
	sink, err := NewDirSink(streamed)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSinkWriter(sink, 2048)
	sw.Append(events...)
	if sink.Prints() != nil {
		t.Fatal("an unsealed sink gave prints")
	}
	if err := sw.Close(Meta{Workload: "streamed"}); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Prints(); !maps.Equal(got, snap.Prints) || len(got) != 2*sink.Chunks()+1 {
		t.Fatalf("a sealed sink's prints %v, the snapshot's %v", got, snap.Prints)
	}
}

// TestCheckedReaderRefusesRewrites: a Reader opened with a directory's
// prints refuses a chunk rewritten after it was opened, with a
// *ChangedError naming the file, from every call that loads the chunk,
// while a Reader opened without prints reads the rewrite; and it refuses a
// directory whose listing changed before it was opened.
func TestCheckedReaderRefusesRewrites(t *testing.T) {
	dir, _ := writeRandomTrace(t, 37, 600, 2048)
	snap, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenChecked(dir, snap.Prints)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() < 3 {
		t.Fatalf("%d chunks, want at least 3", r.NumChunks())
	}
	for i := range r.NumChunks() {
		if _, err := r.ReadChunk(i, nil); err != nil {
			t.Fatalf("chunk %d as printed: %v", i, err)
		}
	}
	// Chunk 2 rewritten with chunk 0's bytes: a valid chunk, not the printed one.
	name := r.ChunkName(2)
	if err := os.WriteFile(filepath.Join(dir, name), readFile(t, filepath.Join(dir, r.ChunkName(0))), 0o644); err != nil {
		t.Fatal(err)
	}
	for call, read := range map[string]func() error{
		"ReadChunk":   func() error { _, err := r.ReadChunk(2, nil); return err },
		"ReadColumns": func() error { _, _, err := r.ReadColumns(2); return err },
		"ScanOverhead": func() error {
			_, err := r.ScanOverhead(2, func(ProcID, vclock.Time, OverheadKind, string) {})
			return err
		},
	} {
		var changed *ChangedError
		if err := read(); !errors.As(err, &changed) || changed.File != name {
			t.Fatalf("%s of the rewritten chunk: %v, want a *ChangedError naming %s", call, err, name)
		}
	}
	if _, err := r.ReadChunk(1, nil); err != nil {
		t.Fatalf("an unchanged chunk after the refusal: %v", err)
	}
	plain, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.ReadChunk(2, nil); err != nil {
		t.Fatalf("a Reader without prints refused the rewrite: %v", err)
	}
	// A removed sidecar changes the listing.
	side := sidecarPath(r.ChunkName(1))
	if err := os.Remove(filepath.Join(dir, side)); err != nil {
		t.Fatal(err)
	}
	var changed *ChangedError
	if _, err := OpenChecked(dir, snap.Prints); !errors.As(err, &changed) || changed.File != side {
		t.Fatalf("open after a sidecar was removed: %v, want a *ChangedError naming %s", err, side)
	}
}
