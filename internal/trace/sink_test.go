package trace

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// sinkTestFrames encodes a deterministic event list into n chunk frames —
// the (chunk, index) pairs a Writer flush would deliver.
func sinkTestFrames(t *testing.T, n int) (chunks [][]byte, indexes []*ChunkIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, 40*n)
	per := len(events) / n
	for i := 0; i < n; i++ {
		group := events[i*per : (i+1)*per]
		chunk, ix, err := EncodeEvents(group)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, chunk)
		indexes = append(indexes, ix)
	}
	return chunks, indexes
}

// TestDirSinkDigestTracksDirDigest pins the O(1) content-addressing
// guarantee: at every growth point of the directory — after each append and
// after the seal — the sink's incrementally-maintained digest equals a full
// DirDigest rehash of the directory on disk.
func TestDirSinkDigestTracksDirDigest(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Digest(); got != "" {
		t.Fatalf("empty sink has digest %q, want \"\"", got)
	}
	chunks, indexes := sinkTestFrames(t, 5)
	for i := range chunks {
		if err := sink.AppendChunk(i, chunks[i], indexes[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want, err := DirDigest(dir)
		if err != nil {
			t.Fatalf("after append %d: %v", i, err)
		}
		if got := sink.Digest(); got != want {
			t.Fatalf("after append %d: sink digest %s, DirDigest %s", i, got, want)
		}
	}
	meta := Meta{Workload: "sink-test", Config: Full(), Procs: map[ProcID]ProcInfo{0: {Name: "p", Parent: -1}}}
	if err := sink.Seal(meta); err != nil {
		t.Fatal(err)
	}
	want, err := DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Digest(); got != want {
		t.Fatalf("sealed sink digest %s, DirDigest %s", got, want)
	}
	if err := sink.Seal(meta); !errors.Is(err, ErrSinkSealed) || sink.Chunks() != len(chunks) {
		t.Fatalf("second Seal: %v, chunks=%d; want ErrSinkSealed/%d", err, sink.Chunks(), len(chunks))
	}
}

// TestDirSinkIdempotencyProtocol exercises the retry protocol: replaying an
// applied sequence with identical bytes is a flagged no-op, a diverging
// replay is a ConflictError, a gap is a SeqError naming the expected
// sequence, and nothing is accepted after Seal.
func TestDirSinkIdempotencyProtocol(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	chunks, indexes := sinkTestFrames(t, 3)

	// A gap: seq 1 before seq 0.
	var seqErr *SeqError
	if err := sink.AppendChunk(1, chunks[1], indexes[1]); !errors.As(err, &seqErr) {
		t.Fatalf("gap append: %v, want *SeqError", err)
	} else if seqErr.Seq != 1 || seqErr.Next != 0 {
		t.Fatalf("gap append: %+v, want Seq=1 Next=0", seqErr)
	}

	if err := sink.AppendChunk(0, chunks[0], indexes[0]); err != nil {
		t.Fatal(err)
	}
	digest := sink.Digest()

	// Idempotent replay: same seq, same bytes.
	dup, err := sink.Append(0, chunks[0], mustSidecar(t, indexes[0]))
	if err != nil || !dup {
		t.Fatalf("identical replay: dup=%v err=%v, want true/nil", dup, err)
	}
	if sink.Chunks() != 1 || sink.Digest() != digest {
		t.Fatalf("replay changed state: chunks=%d digest match=%v", sink.Chunks(), sink.Digest() == digest)
	}

	// Diverging replay: same seq, different chunk bytes.
	var conflict *ConflictError
	if _, err := sink.Append(0, chunks[1], mustSidecar(t, indexes[0])); !errors.As(err, &conflict) {
		t.Fatalf("diverging replay: %v, want *ConflictError", err)
	}

	if err := sink.Seal(Meta{Workload: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.AppendChunk(1, chunks[1], indexes[1]); !errors.Is(err, ErrSinkSealed) {
		t.Fatalf("post-seal append: %v, want ErrSinkSealed", err)
	}
	if err := sink.Seal(Meta{}); !errors.Is(err, ErrSinkSealed) {
		t.Fatalf("double seal: %v, want ErrSinkSealed", err)
	}
}

// TestDirSinkReplayChecksLandedFiles: a replay is compared with the chunk
// and sidecar files on disk — a diverging sidecar alone is a conflict, and
// a replay whose landed file is gone is an error, not a duplicate.
func TestDirSinkReplayChecksLandedFiles(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	chunks, indexes := sinkTestFrames(t, 2)
	for i := range chunks {
		if err := sink.AppendChunk(i, chunks[i], indexes[i]); err != nil {
			t.Fatal(err)
		}
	}
	var conflict *ConflictError
	if _, err := sink.Append(1, chunks[1], mustSidecar(t, indexes[0])); !errors.As(err, &conflict) || conflict.Seq != 1 {
		t.Fatalf("replay with another sidecar: %v, want a *ConflictError for seq 1", err)
	}
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf(chunkFilePattern, 0))); err != nil {
		t.Fatal(err)
	}
	if dup, err := sink.Append(0, chunks[0], mustSidecar(t, indexes[0])); dup || err == nil || errors.As(err, &conflict) {
		t.Fatalf("replay of a chunk whose file is gone: dup=%v err=%v, want a read error", dup, err)
	}
}

func mustSidecar(t testing.TB, ix *ChunkIndex) []byte {
	t.Helper()
	data, err := ix.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDirSinkRefusesExistingTrace: a server-owned store never overwrites,
// and says so with ErrDirHasTrace; a path it cannot make a directory of is
// some other error.
func TestDirSinkRefusesExistingTrace(t *testing.T) {
	dir := digestTestDir(t)
	if _, err := NewDirSink(dir); !errors.Is(err, ErrDirHasTrace) {
		t.Fatalf("NewDirSink over an existing trace directory: %v, want ErrDirHasTrace", err)
	}
	file := filepath.Join(dir, "meta.json")
	if _, err := NewDirSink(filepath.Join(file, "x")); err == nil || errors.Is(err, ErrDirHasTrace) {
		t.Fatalf("NewDirSink under a regular file: %v, want a file-system error", err)
	}
}

// TestSinkWriterMatchesWriter pins the streaming-equals-local guarantee at
// the bytes level: the same events flushed through NewSinkWriter into a
// DirSink produce a directory with the same content digest as a local
// NewWriter run with the same chunk budget.
func TestSinkWriterMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	events := randomEvents(rng, 500)
	meta := Meta{Workload: "sink-writer", Config: Full(), Procs: map[ProcID]ProcInfo{
		0: {Name: "trainer", Parent: -1},
	}}

	local := t.TempDir()
	w, err := NewWriter(local, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(events...)
	if err := w.Close(meta); err != nil {
		t.Fatal(err)
	}

	streamed := t.TempDir()
	sink, err := NewDirSink(streamed)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSinkWriter(sink, 4<<10)
	sw.Append(events...)
	if err := sw.Close(meta); err != nil {
		t.Fatal(err)
	}

	want, err := DirDigest(local)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Digest(); got != want {
		t.Fatalf("streamed digest %s, local digest %s", got, want)
	}
}

// TestOnlyReadDigestsAreKept: a Writer's own sink, which nothing can ask for
// a digest, keeps no hash state, while every sink whose digest is read — a
// NewDirSink's, so the server's live traces (serve's scenario tests check
// each seal's), and ConvertDir's — still reports DirDigest(dir).
func TestOnlyReadDigestsAreKept(t *testing.T) {
	events := randomEvents(rand.New(rand.NewSource(13)), 500)
	meta := Meta{Workload: "digests", Config: Full(), Procs: map[ProcID]ProcInfo{0: {Name: "p", Parent: -1}}}

	local := t.TempDir()
	w, err := NewWriter(local, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	own := w.sink.(*DirSink)
	w.Append(events...)
	if err := w.Close(meta); err != nil {
		t.Fatal(err)
	}
	if own.digest.h != nil || own.digest.frame != nil || own.Digest() != "" {
		t.Fatalf("a Writer's sink kept digest state: hash %v, %d frame bytes", own.digest.h != nil, len(own.digest.frame))
	}
	if own.prints != nil || own.Prints() != nil {
		t.Fatalf("a Writer's sink kept %d prints", len(own.prints))
	}
	want, err := DirDigest(local)
	if err != nil {
		t.Fatal(err)
	}

	streamed := t.TempDir()
	sink, err := NewDirSink(streamed)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSinkWriter(sink, 4<<10)
	sw.Append(events...)
	if err := sw.Close(meta); err != nil {
		t.Fatal(err)
	}
	if got := sink.Digest(); got != want {
		t.Fatalf("NewDirSink digest %s, DirDigest %s", got, want)
	}

	dst := filepath.Join(t.TempDir(), "v2")
	stats, err := ConvertDir(context.Background(), local, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DirDigest(dst); err != nil || stats.DstDigest != got || stats.SrcDigest != want {
		t.Fatalf("ConvertDir digests %s → %s, DirDigest %s → %s (%v)", stats.SrcDigest, stats.DstDigest, want, got, err)
	}
}
