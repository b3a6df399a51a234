package trace

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/disk"
)

// DirDigest computes a content hash identifying a chunked trace directory:
// SHA-256 over the sorted set of files that define the trace — the run
// metadata, every chunk file, and every sidecar index — each framed by its
// name and size so file boundaries cannot alias. Two directories hold the
// same trace exactly when their digests match, whatever their paths, and
// any rewrite of a chunk, sidecar, or metadata changes the digest.
//
// The digest is the cache key rlscope-serve addresses analysis reports by:
// a report cached under one digest can never be served for a directory
// whose bytes have since changed. Files other than the trace's own
// (temporaries, editor droppings) are ignored.
func DirDigest(dir string) (string, error) {
	names, err := digestNames(dir)
	if err != nil {
		return "", err
	}
	d := newDigester()
	if err := readTrace(dir, names, &d, nil); err != nil {
		return "", err
	}
	return hex.EncodeToString(d.h.Sum(nil)), nil
}

// errNoTraceFiles is why a directory without trace files has no digest.
var errNoTraceFiles = errors.New("trace: no trace files")

// digestNames lists the files a digest of dir folds in: its trace files, of
// which there must be one.
func digestNames(dir string) ([]string, error) {
	names, err := traceFiles(disk.OS, dir)
	if err != nil {
		return nil, fmt.Errorf("trace: digesting trace dir: %w", err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("trace: digesting trace dir %s: %w", dir, errNoTraceFiles)
	}
	return names, nil
}

// readTrace reads the named files of dir once each, in order, and folds each
// into d; fn, when set, is then handed the file's name and bytes, which stay
// valid until the next file of the same kind is read.
func readTrace(dir string, names []string, d *digester, fn func(name string, b []byte) error) error {
	bufs := map[string][]byte{} // one buffer per kind of file, each sized by its first
	for _, name := range names {
		kind := filepath.Ext(name)
		var err error
		if bufs[kind], err = disk.OS.ReadFile(filepath.Join(dir, name), bufs[kind]); err != nil {
			return fmt.Errorf("trace: digesting trace dir: %w", err)
		}
		d.file(name, bufs[kind])
		if fn != nil {
			if err := fn(name, bufs[kind]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Print is one file's fingerprint: its size and a 64-bit maphash of its
// bytes under a seed drawn once per process. It tells whether a file still
// holds the bytes a digest was taken of at a fraction of SHA-256's cost, but
// only within the process that took it: a print is never stored, sent or
// logged, and the persistent name of a trace stays its DirDigest.
type Print struct {
	Size int64
	Hash uint64
}

// printSeed keys every print this process takes.
var printSeed = maphash.MakeSeed()

func printOf(b []byte) Print { return Print{Size: int64(len(b)), Hash: maphash.Bytes(printSeed, b)} }

// Prints maps each trace file of a directory, by name, to its print, taken
// in the pass that digested it: ReadSnapshot's, or a sealed DirSink's. A
// Reader opened with them (OpenChecked) refuses any file that is not the one
// printed. Shared by everything that reads the directory, so never modified.
type Prints map[string]Print

// changed names the first file, in name order, that one of the sorted
// listing names and the prints has and the other does not; "" when both name
// the same files.
func (p Prints) changed(names []string) string {
	first := ""
	for _, name := range names {
		if _, ok := p[name]; !ok {
			first = name
			break
		}
	}
	if first == "" && len(names) == len(p) {
		return ""
	}
	for name := range p {
		if _, found := slices.BinarySearch(names, name); !found && (first == "" || name < first) {
			first = name
		}
	}
	return first
}

// ChangedError reports a file of a directory opened with prints (OpenChecked)
// that is not the file they print: rewritten, added or removed since the
// pass that took them. File is the file's name within Dir.
type ChangedError struct {
	Dir, File string
}

func (e *ChangedError) Error() string {
	return fmt.Sprintf("trace: %s in %s changed since it was digested", e.File, e.Dir)
}

// Snapshot is what one read of every file of a sealed trace directory
// yields: the content digest (DirDigest's value), each file's print, the run
// metadata, and each chunk's index as Reader.Index returns it.
type Snapshot struct {
	Digest string
	Prints Prints
	Meta   Meta
	// Indexes holds chunk i's index at i, chunks in name order. Each is
	// the sidecar's, with Bytes the chunk file's size, or, for a chunk
	// without a sidecar that parses, the one its decoded events give.
	Indexes []ChunkIndex
}

// ReadSnapshot reads each file of the trace in dir once, and takes from
// that one read everything a sealed trace's registration needs: the digest,
// the prints, the metadata and the chunk indexes. A directory whose
// metadata is missing or does not parse fails as OpenDir fails on it.
func ReadSnapshot(dir string) (*Snapshot, error) {
	names, err := digestNames(dir)
	if err != nil {
		return nil, err
	}
	// chunk maps each chunk's name to its place in name order. A chunk's
	// sidecar sorts before it (".rlsidx" < ".rlstrace"), so a sidecar is
	// parsed into its chunk's slot before the chunk is read.
	chunk := map[string]int{}
	for _, name := range names {
		if strings.HasSuffix(name, chunkSuffix) {
			chunk[name] = len(chunk)
		}
	}
	snap := &Snapshot{Prints: make(Prints, len(names)), Indexes: make([]ChunkIndex, len(chunk))}
	indexed := make([]bool, len(chunk))
	sawMeta := false
	d := newDigester()
	err = readTrace(dir, names, &d, func(name string, b []byte) error {
		snap.Prints[name] = printOf(b)
		switch {
		case name == metaFileName:
			sawMeta = true
			if err := json.Unmarshal(b, &snap.Meta); err != nil {
				return fmt.Errorf("trace: decoding metadata: %w", err)
			}
		case strings.HasSuffix(name, sidecarSuffix):
			if i, ok := chunk[strings.TrimSuffix(name, sidecarSuffix)+chunkSuffix]; ok {
				indexed[i] = parseSidecar(b, &snap.Indexes[i], nil) == nil
			}
		default:
			i := chunk[name]
			if indexed[i] {
				snap.Indexes[i].Bytes = int64(len(b))
				return nil
			}
			events, err := DecodeChunkBytes(b, nil, nil)
			if err != nil {
				return &ChunkError{Dir: dir, Chunk: name, Err: err}
			}
			snap.Indexes[i] = *BuildChunkIndex(events, int64(len(b)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, fmt.Errorf("trace: reading metadata: %s has no %s", dir, metaFileName)
	}
	snap.Digest = hex.EncodeToString(d.h.Sum(nil))
	return snap, nil
}
