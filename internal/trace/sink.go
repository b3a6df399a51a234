package trace

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/disk"
	"repro/internal/recycle"
)

// Sink is the destination of a chunked trace write: a sequence of encoded
// chunks (with their sidecar indexes) finalized by run metadata. DirSink
// lands chunks in a local directory — the layout Writer has always
// produced — while a network sink (see the client package) streams the
// same frames to a remote rlscope-serve trace store, so a workload can
// profile straight into shared infrastructure without a local trace dir.
//
// Chunks carry explicit sequence numbers starting at 0. A Sink must apply
// chunk seq before chunk seq+1 and must reject gaps; whether it tolerates
// replays of already-applied chunks (idempotent retries) is up to the
// implementation — DirSink does, a requirement for at-least-once delivery
// over a network.
//
// A Sink must not use chunk or index after AppendChunk returns: a Writer
// builds its frames in recycled buffers and hands each back for the next
// chunk once it has been delivered.
type Sink interface {
	// AppendChunk applies the encoded chunk with the given sequence
	// number. index is the chunk's sidecar index, always derived from the
	// same events the chunk encodes.
	AppendChunk(seq int, chunk []byte, index *ChunkIndex) error
	// Seal finalizes the trace with its run metadata. No appends may
	// follow a successful Seal.
	Seal(meta Meta) error
}

// ErrSinkSealed is returned by appends to (or a second Seal of) an
// already-sealed sink.
var ErrSinkSealed = errors.New("trace: sink already sealed")

// ErrDirHasTrace is wrapped by NewDirSink's refusal of a directory that
// already holds trace files: a store never overwrites a trace. Any other
// NewDirSink error is the file system's.
var ErrDirHasTrace = errors.New("trace: dir already holds a trace")

// SeqError reports an out-of-order chunk append: Seq arrived while the
// sink still expects Next. Retrying an already-applied sequence is not a
// SeqError (that path is idempotent); only a gap — a chunk from the future
// — is.
type SeqError struct {
	// Seq is the offered sequence number; Next the one the sink expects.
	Seq, Next int
}

func (e *SeqError) Error() string {
	return fmt.Sprintf("trace: chunk seq %d out of order (next expected %d)", e.Seq, e.Next)
}

// ConflictError reports a replayed chunk whose content differs from the
// bytes originally applied under the same sequence number — a retry must
// resend the identical frame, anything else is a protocol violation.
type ConflictError struct {
	Seq int
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("trace: chunk seq %d replayed with different content", e.Seq)
}

// DirSink lands a chunked trace in a directory, one .rlstrace chunk plus
// one .rlsidx sidecar per append and a meta.json at Seal — exactly the
// files, names, and bytes Writer produces, so a trace streamed through a
// DirSink is byte-identical to one written locally by the same workload.
//
// DirSink is the server side of live trace ingest: appends are sequence-
// checked (a gap is a *SeqError) and idempotent (replaying an applied
// sequence with identical content is a no-op, with different content a
// *ConflictError). A sink made by NewDirSink folds every landed file into
// a running content digest with the same framing as DirDigest — so the
// digest of the growing directory is always available in O(1), and after
// Seal it equals DirDigest(dir) exactly — and takes each file's print as it
// lands, so a sealed directory is checked without being read again
// (Prints). The sink NewWriter builds keeps neither: the Writer is its only
// holder and never asks for them.
//
// DirSink methods are safe for concurrent use.
type DirSink struct {
	fs  disk.FS
	dir string

	mu     sync.Mutex
	next   int      // next expected sequence number
	digest digester // running DirDigest-framed hash over sidecar+chunk pairs; no hash in a Writer's sink
	// prints holds each landed file's print beside the digest: sidecar then
	// chunk for each seq, then the metadata's. None in a Writer's sink.
	prints []Print
	sealed bool
}

// NewDirSink creates dir (if needed) and returns a sink writing a fresh
// trace into it. The directory must not already contain trace files: a
// server-owned trace store never overwrites, it rejects (callers wanting
// Writer's historical overwrite semantics go through NewWriter, which
// clears stale trace files first).
func NewDirSink(dir string) (*DirSink, error) { return NewDirSinkFS(disk.OS, dir) }

// NewDirSinkFS is NewDirSink making every file call through fs.
func NewDirSinkFS(fs disk.FS, dir string) (*DirSink, error) { return newDirSink(fs, dir, false) }

// newDirSink makes a sink in dir. A Writer's own sink (forWriter) clears
// stale trace files instead of refusing them, and keeps no digest.
func newDirSink(fs disk.FS, dir string, forWriter bool) (*DirSink, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("trace: creating trace dir: %w", err)
	}
	names, err := traceFiles(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("trace: reading trace dir: %w", err)
	}
	for _, name := range names {
		if !forWriter {
			return nil, fmt.Errorf("%w: %s contains trace file %s", ErrDirHasTrace, dir, name)
		}
		// Overwrite mode: clear stale trace files so a shorter rewrite
		// cannot leave higher-numbered chunks of a previous trace behind.
		if err := fs.Remove(filepath.Join(dir, name)); err != nil {
			return nil, fmt.Errorf("trace: clearing stale trace file: %w", err)
		}
	}
	if forWriter {
		return &DirSink{fs: fs, dir: dir}, nil
	}
	return &DirSink{fs: fs, dir: dir, digest: newDigester()}, nil
}

// Dir returns the directory the sink writes into.
func (s *DirSink) Dir() string { return s.dir }

// AppendChunk implements Sink: it encodes the index to its sidecar form
// and applies both frames. Replays of an already-applied sequence are
// treated as successful no-ops when the content matches.
func (s *DirSink) AppendChunk(seq int, chunk []byte, index *ChunkIndex) error {
	sidecar, err := index.AppendBinary(nil)
	if err != nil {
		return fmt.Errorf("trace: encoding sidecar index: %w", err)
	}
	_, err = s.Append(seq, chunk, sidecar)
	return err
}

// Append applies one encoded chunk and its sidecar bytes under the given
// sequence number. It reports dup = true (and no error) when the sequence
// was already applied with identical content — the idempotent-retry path.
// A gap in the sequence is a *SeqError, a content-diverging replay a
// *ConflictError, and an append after Seal is ErrSinkSealed.
func (s *DirSink) Append(seq int, chunk, sidecar []byte) (dup bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return false, ErrSinkSealed
	}
	if seq < 0 || seq > s.next {
		return false, &SeqError{Seq: seq, Next: s.next}
	}
	chunkName := fmt.Sprintf(chunkFilePattern, seq)
	if seq < s.next {
		// A replay is checked against the files it would have written:
		// landed bytes are hashed once, into the running digest, and never
		// again.
		got, err := s.fs.ReadFile(filepath.Join(s.dir, chunkName), nil)
		side, serr := s.fs.ReadFile(filepath.Join(s.dir, sidecarPath(chunkName)), nil)
		if err = cmp.Or(err, serr); err != nil {
			return false, fmt.Errorf("trace: reading applied chunk %d: %w", seq, err)
		}
		if !bytes.Equal(got, chunk) || !bytes.Equal(side, sidecar) {
			return false, &ConflictError{Seq: seq}
		}
		return true, nil
	}
	if err := s.fs.WriteFile(filepath.Join(s.dir, chunkName), chunk); err != nil {
		return false, fmt.Errorf("trace: writing chunk: %w", err)
	}
	if err := s.fs.WriteFile(filepath.Join(s.dir, sidecarPath(chunkName)), sidecar); err != nil {
		return false, fmt.Errorf("trace: writing sidecar: %w", err)
	}
	// Fold the pair into the running digest in DirDigest's sorted-name
	// order: for equal sequence numbers the sidecar name sorts before the
	// chunk name (".rlsidx" < ".rlstrace"), every chunk pair sorts before
	// any later pair, and "meta.json" sorts after all of them — so
	// appending frames in arrival order reproduces the sorted walk.
	if s.digest.h != nil {
		s.digest.file(sidecarPath(chunkName), sidecar)
		s.digest.file(chunkName, chunk)
		s.prints = append(s.prints, printOf(sidecar), printOf(chunk))
	}
	s.next++
	return false, nil
}

// digester folds files into a hash with the one framing of DirDigest and of
// a sink's running digest: each file's name and size, then its content.
// frame is the framing's scratch.
type digester struct {
	h     hash.Hash
	frame []byte
}

func newDigester() digester { return digester{h: sha256.New()} }

// file folds one file into the hash, framed "name\x00size\x00".
func (d *digester) file(name string, content []byte) {
	d.frame = append(append(d.frame[:0], name...), 0)
	d.frame = append(strconv.AppendInt(d.frame, int64(len(content)), 10), 0)
	d.h.Write(d.frame)
	d.h.Write(content)
}

// Seal writes the run metadata and folds it into the digest. Sealing an
// already-sealed sink is ErrSinkSealed; callers wanting idempotent seals
// compare metadata themselves before retrying.
func (s *DirSink) Seal(meta Meta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return ErrSinkSealed
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: encoding metadata: %w", err)
	}
	if err := s.fs.WriteFile(filepath.Join(s.dir, metaFileName), data); err != nil {
		return fmt.Errorf("trace: writing metadata: %w", err)
	}
	if s.digest.h != nil {
		s.digest.file(metaFileName, data)
		s.prints = append(s.prints, printOf(data))
	}
	s.sealed = true
	return nil
}

// Chunks reports how many chunks have been applied.
func (s *DirSink) Chunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// Digest returns the content digest of the directory as it stands: the
// same quantity DirDigest(dir) computes, maintained incrementally so a
// growing trace can be content-addressed without rehashing the directory
// on every append. After Seal it is the trace's final digest. An empty
// sink (no chunks, not sealed) has no content to address and returns "",
// as does a Writer's own sink, which keeps no digest.
func (s *DirSink) Digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.digest.h == nil || s.next == 0 && !s.sealed {
		return ""
	}
	// Sum leaves the running hash as it was, so later appends fold on.
	return hex.EncodeToString(s.digest.h.Sum(nil))
}

// Prints returns the print of every file the sink landed, each taken as the
// file landed, once the sink is sealed: what a Reader over the sealed
// directory checks its reads against (OpenChecked), with no file read again.
// It is nil before Seal and for a Writer's own sink.
func (s *DirSink) Prints() Prints {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sealed || s.prints == nil {
		return nil
	}
	p := make(Prints, len(s.prints))
	for seq := range s.next {
		name := fmt.Sprintf(chunkFilePattern, seq)
		p[sidecarPath(name)], p[name] = s.prints[2*seq], s.prints[2*seq+1]
	}
	p[metaFileName] = s.prints[len(s.prints)-1]
	return p
}

// EncodeEvents serializes events into one v1 chunk frame plus its sidecar
// index — the exact pair a Writer flush produces — for callers that feed a
// Sink directly (the network streaming path encodes on the client and
// ships frames).
func EncodeEvents(events []Event) (chunk []byte, index *ChunkIndex, err error) {
	return EncodeEventsFormat(events, FormatV1)
}

// EncodeEventsFormat is EncodeEvents with an explicit chunk format. The
// sidecar index is format-independent (its Version field is the sidecar
// schema version, not the chunk's), so sinks — local directories, the
// network ingest path — handle either format without caring which.
func EncodeEventsFormat(events []Event, f Format) (chunk []byte, index *ChunkIndex, err error) {
	return encodeInto(events, f, nil)
}

// encodeInto encodes events as one frame of format f in a buffer borrowed
// from bufs — a new one when bufs is nil — and builds the frame's sidecar
// index. A v2 frame borrows at its one grow, exactly its size; a v1 frame,
// built by append, borrows its presize, and a buffer it outgrew goes back.
func encodeInto(events []Event, f Format, bufs *recycle.Store[byte]) (chunk []byte, index *ChunkIndex, err error) {
	if f == FormatV2 {
		chunk, err = appendChunkV2(nil, events, bufs)
	} else {
		buf := bufs.Reserve(nil, frameHint(len(events)))
		if chunk, err = appendChunkV1(buf, events); bufs != nil && cap(chunk) != cap(buf) {
			bufs.Put(buf) // outgrown, or refused: kept for another frame
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return chunk, BuildChunkIndex(events, int64(len(chunk))), nil
}
