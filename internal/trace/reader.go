package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/recycle"
	"repro/internal/vclock"
)

// sidecar file naming: chunk_000003.rlstrace -> chunk_000003.rlsidx
const (
	chunkSuffix   = ".rlstrace"
	sidecarSuffix = ".rlsidx"
)

// ChunkError identifies which chunk file of a trace directory failed to
// decode (truncated, corrupt, or unreadable). Callers can unwrap it with
// errors.As to recover the offending file.
type ChunkError struct {
	// Dir is the trace directory.
	Dir string
	// Chunk is the chunk file name within Dir.
	Chunk string
	// Err is the underlying decode or I/O error.
	Err error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("trace: chunk %s in %s: %v", e.Chunk, e.Dir, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// ProcSpan summarizes one process's events within a single chunk.
type ProcSpan struct {
	// MinStart and MaxEnd bound the extents of the process's events in
	// the chunk (for point events End == Start).
	MinStart vclock.Time `json:"min_start"`
	MaxEnd   vclock.Time `json:"max_end"`
	// Events counts the process's events in the chunk.
	Events int `json:"events"`
}

// ChunkIndex is the per-chunk sidecar the Writer emits at flush time: enough
// metadata for a streaming reader to plan an analysis — which processes a
// chunk touches, over what time extent, and the phase annotations it carries
// (phase events are few, so copying them into the sidecar lets the planner
// derive the per-process window partition without decoding any chunk).
type ChunkIndex struct {
	Version int `json:"version"`
	// Events is the total event count of the chunk.
	Events int `json:"events"`
	// Bytes is the encoded size of the chunk file. A Reader sets it from
	// the file, whatever the sidecar says.
	Bytes int64 `json:"bytes"`
	// Procs maps each process present in the chunk to its span.
	Procs map[ProcID]ProcSpan `json:"procs"`
	// Phases holds copies of the chunk's KindPhase events.
	Phases []Event `json:"phases,omitempty"`
}

// BuildChunkIndex derives the sidecar index for one chunk's events.
// encodedBytes records the serialized chunk size.
func BuildChunkIndex(events []Event, encodedBytes int64) *ChunkIndex {
	ix := &ChunkIndex{
		Version: sidecarVersion,
		Events:  len(events),
		Bytes:   encodedBytes,
		Procs:   map[ProcID]ProcSpan{},
	}
	// Events arrive in runs of one process (a sorted trace is one run per
	// process), so a run's span is accumulated in a local and the map is
	// touched once per run, not twice per event.
	for i := 0; i < len(events); {
		proc := events[i].Proc
		sp, ok := ix.Procs[proc]
		if !ok {
			sp = ProcSpan{MinStart: events[i].Start, MaxEnd: events[i].End}
		}
		for ; i < len(events) && events[i].Proc == proc; i++ {
			e := &events[i]
			if e.Start < sp.MinStart {
				sp.MinStart = e.Start
			}
			if e.End > sp.MaxEnd {
				sp.MaxEnd = e.End
			}
			sp.Events++
			if e.Kind == KindPhase {
				ix.Phases = append(ix.Phases, *e)
			}
		}
		ix.Procs[proc] = sp
	}
	return ix
}

func sidecarPath(chunkPath string) string {
	return strings.TrimSuffix(chunkPath, chunkSuffix) + sidecarSuffix
}

// Reader iterates a chunked trace directory lazily: chunks are decoded one
// at a time into a caller-supplied buffer, and per-chunk sidecar indexes are
// served without decoding events, so an analysis never needs the whole trace
// resident. Use ReadDir instead when the full materialized Trace is wanted.
//
// Chunk versions are detected per file, so a directory may mix v1 and v2
// chunks freely. The Reader owns one Interner: every name decoded from any
// chunk resolves to a shared string object, and all read scratch (the frame
// buffer, the v2 column chunk, the sidecar buffer) is reused across calls —
// a warm streaming pass over v2 chunks allocates essentially nothing.
//
// Reader methods are not safe for concurrent use.
type Reader struct {
	dir   string
	names []string // chunk file names, sorted
	meta  Meta

	// paths and sidePaths hold the precomputed full paths of each chunk
	// and its sidecar, so the per-chunk read loop never rebuilds them.
	paths     []string
	sidePaths []string

	in     *Interner
	frame  []byte // loaded chunk frame, reused across chunks
	loaded int    // chunk index whose frame is in frame; -1 if none
	cc     ColumnChunk
	side   []byte // sidecar read buffer, reused across chunks

	// ixCache holds each chunk's parsed sidecar index after its first
	// Index call: the sidecars are immutable once written, so a warm
	// Reader plans repeated streaming runs without touching the disk or
	// the allocator.
	ixCache []ChunkIndex
	ixOK    []bool
}

// OpenDir opens a trace directory previously written by Writer: it lists
// the chunk files and reads the run metadata, decoding no events.
func OpenDir(dir string) (*Reader, error) {
	// Names only: readSidecar takes each chunk's size from the file itself.
	d, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: reading trace dir: %w", err)
	}
	entries, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, fmt.Errorf("trace: reading trace dir: %w", err)
	}
	r := &Reader{dir: dir, in: NewInterner(), loaded: -1}
	for _, name := range entries {
		if strings.HasSuffix(name, chunkSuffix) {
			r.names = append(r.names, name)
		}
	}
	sort.Strings(r.names)
	r.paths = make([]string, len(r.names))
	r.sidePaths = make([]string, len(r.names))
	for i, name := range r.names {
		r.paths[i] = filepath.Join(dir, name)
		r.sidePaths[i] = filepath.Join(dir, sidecarPath(name))
	}
	metaData, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		return nil, fmt.Errorf("trace: reading metadata: %w", err)
	}
	if err := json.Unmarshal(metaData, &r.meta); err != nil {
		return nil, fmt.Errorf("trace: decoding metadata: %w", err)
	}
	return r, nil
}

// Meta returns the run metadata.
func (r *Reader) Meta() Meta { return r.meta }

// NumChunks reports the number of chunk files in the directory.
func (r *Reader) NumChunks() int { return len(r.names) }

// ChunkName returns the file name of chunk i.
func (r *Reader) ChunkName(i int) string { return r.names[i] }

// load reads chunk i's frame into the reusable frame buffer, first sized from
// the file so that a Reader's first chunk costs one allocation, not a
// doubling series. The previous frame stays cached, so ReadColumns followed
// by ReadChunk on the same chunk (the v1 fallback path) reads the file once.
func (r *Reader) load(i int) ([]byte, error) {
	if r.loaded == i {
		return r.frame, nil
	}
	r.loaded = -1
	name := r.names[i]
	f, err := os.Open(r.paths[i])
	if err != nil {
		return nil, &ChunkError{Dir: r.dir, Chunk: name, Err: err}
	}
	if cap(r.frame) == 0 {
		// The Reader's first chunk: one byte past the file's size lets the
		// read that finds EOF fit too. Later chunks find the buffer there.
		if fi, err := f.Stat(); err == nil {
			r.frame = make([]byte, 0, fi.Size()+1)
		}
	}
	r.frame, err = recycle.ReadAll(r.frame, f)
	f.Close()
	if err != nil {
		return nil, &ChunkError{Dir: r.dir, Chunk: name, Err: fmt.Errorf("trace: decode: reading chunk: %w", err)}
	}
	r.loaded = i
	return r.frame, nil
}

// ReadChunk decodes chunk i — either format — appending its events to dst
// and returning the extended slice. Passing the previous call's slice
// re-sliced to [:0] reuses its backing array, so a streaming loop allocates
// one buffer for the whole trace. Decode failures are reported as
// *ChunkError.
func (r *Reader) ReadChunk(i int, dst []Event) ([]Event, error) {
	dst, _, _, err := r.walk(i, dst, nil, walkDecode, nil)
	return dst, err
}

// ReadChunkSized is ReadChunk that also returns the summed EventBytes of the
// events it appended, which the decoder has at hand: a caller that accounts
// for resident bytes need not walk the events again. When dst lacks room for
// the chunk, the room comes from bufs as DecodeChunkBytes takes it; a nil
// bufs grows dst as ReadChunk does.
func (r *Reader) ReadChunkSized(i int, dst []Event, bufs *recycle.Store[Event]) ([]Event, int64, error) {
	dst, _, bytes, err := r.walk(i, dst, bufs, walkDecode, nil)
	return dst, bytes, err
}

// ReadChunkSkipOverhead is ReadChunkSized for a reader that would drop the
// overhead markers on arrival: it applies every check ReadChunk applies but
// steps over the chunk's KindOverhead records without storing them, so
// neither dst nor bytes holds one. walked counts every record read, markers
// included.
func (r *Reader) ReadChunkSkipOverhead(i int, dst []Event, bufs *recycle.Store[Event]) (events []Event, walked int, bytes int64, err error) {
	return r.walk(i, dst, bufs, walkSkipOverhead, nil)
}

// ScanOverhead passes every KindOverhead record of chunk i to fn, in storage
// order, without building the chunk's events, and returns the chunk's event
// count. It applies every check ReadChunk applies, so it fails — with the
// same *ChunkError — on exactly the chunks ReadChunk fails on; fn may have
// seen the markers ahead of the corruption by then.
func (r *Reader) ScanOverhead(i int, fn OverheadFunc) (events int, err error) {
	_, events, _, err = r.walk(i, nil, nil, walkScan, fn)
	return events, err
}

func (r *Reader) walk(i int, dst []Event, bufs *recycle.Store[Event], mode walkMode, scan OverheadFunc) ([]Event, int, int64, error) {
	frame, err := r.load(i)
	if err != nil {
		return dst, 0, 0, err
	}
	dst, n, bytes, err := walkChunk(frame, r.in, &r.cc, dst, bufs, mode, scan)
	if err != nil {
		err = &ChunkError{Dir: r.dir, Chunk: r.names[i], Err: err}
	}
	return dst, n, bytes, err
}

// ReadColumns reads chunk i and, when it is columnar (v2), parses it into
// the Reader's reusable ColumnChunk and returns it with ok = true — the
// zero-materialization path: iterate its extents with Times. For v1 chunks
// it returns ok = false with no error; the caller falls back to ReadChunk,
// which reuses the already-loaded frame. The returned ColumnChunk is valid
// only until the next Reader call.
func (r *Reader) ReadColumns(i int) (cc *ColumnChunk, ok bool, err error) {
	frame, err := r.load(i)
	if err != nil {
		return nil, false, err
	}
	version, _, err := sniffVersion(frame)
	if err != nil {
		return nil, false, &ChunkError{Dir: r.dir, Chunk: r.names[i], Err: err}
	}
	if version != chunkVersion2 {
		return nil, false, nil
	}
	if err := r.cc.Parse(frame, r.in); err != nil {
		return nil, false, &ChunkError{Dir: r.dir, Chunk: r.names[i], Err: err}
	}
	return &r.cc, true, nil
}

// Index returns the sidecar index of chunk i. When the sidecar file is
// missing or unreadable (traces written before sidecars existed), the chunk
// is decoded once to rebuild the same index. The returned index is cached
// in the Reader — sidecars are immutable once written — and must be treated
// as read-only; repeated planning passes over a warm Reader are served from
// memory.
func (r *Reader) Index(i int) (*ChunkIndex, error) {
	if r.ixOK == nil {
		r.ixOK = make([]bool, len(r.names))
		r.ixCache = make([]ChunkIndex, len(r.names))
	}
	if !r.ixOK[i] {
		if err := r.IndexInto(i, &r.ixCache[i]); err != nil {
			return nil, err
		}
		r.ixOK[i] = true
	}
	return &r.ixCache[i], nil
}

// IndexInto is Index into a caller-reused ChunkIndex: ix's map and slices
// are cleared and refilled, so a planning loop that copies what it needs out
// of ix between calls allocates only when a map or slice must grow. A
// sidecar that is missing or does not parse (sidecar.go) is rebuilt by
// decoding the chunk.
func (r *Reader) IndexInto(i int, ix *ChunkIndex) error {
	ok, err := r.readSidecar(i, ix)
	if ok {
		return nil
	}
	if err != nil {
		return &ChunkError{Dir: r.dir, Chunk: sidecarPath(r.names[i]), Err: err}
	}
	events, err := r.ReadChunk(i, nil)
	if err != nil {
		return err
	}
	// The frame just decoded is the chunk file's bytes: its size is the file's.
	*ix = *BuildChunkIndex(events, int64(len(r.frame)))
	return nil
}

// readSidecar parses chunk i's sidecar file into ix and reports whether it
// could: a missing file or one that does not parse is not an error — the
// index is then the chunk's to rebuild — only a file that cannot be read is.
func (r *Reader) readSidecar(i int, ix *ChunkIndex) (ok bool, err error) {
	f, err := os.Open(r.sidePaths[i])
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			err = nil
		}
		return false, err
	}
	r.side, err = recycle.ReadAll(r.side, f)
	f.Close()
	if err != nil || parseSidecar(r.side, ix, r.in) != nil {
		return false, err
	}
	// The sidecar's claims size buffers, so its byte count is not taken on
	// trust: Bytes is the chunk file's size as it is now, which bounds what
	// the chunk can hold.
	fi, err := os.Stat(r.paths[i])
	if err != nil {
		return false, nil
	}
	ix.Bytes = fi.Size()
	return true, nil
}

// eventsHint is the directory's event count as its sidecars state it, for
// presizing a whole-trace buffer: each chunk's claim is capped by what its
// file could encode, so a hostile sidecar cannot force the allocation, and a
// chunk without a readable sidecar contributes nothing — the buffer grows for
// it when it is decoded.
func (r *Reader) eventsHint() (n int) {
	var ix ChunkIndex
	for i := range r.names {
		if ok, _ := r.readSidecar(i, &ix); ok && ix.Events > 0 {
			n += min(ix.Events, int(ix.Bytes/v1MinEventBytes))
		}
	}
	return n
}
