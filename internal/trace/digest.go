package trace

import (
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"

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
	names, err := traceFiles(disk.OS, dir)
	if err != nil {
		return "", fmt.Errorf("trace: digesting trace dir: %w", err)
	}
	if len(names) == 0 {
		return "", fmt.Errorf("trace: digesting trace dir %s: %w", dir, errNoTraceFiles)
	}
	d := newDigester()
	bufs := map[string][]byte{} // one buffer per kind of file, each sized by its first
	for _, name := range names {
		kind := filepath.Ext(name)
		if bufs[kind], err = disk.OS.ReadFile(filepath.Join(dir, name), bufs[kind]); err != nil {
			return "", fmt.Errorf("trace: digesting trace dir: %w", err)
		}
		d.file(name, bufs[kind])
	}
	return hex.EncodeToString(d.h.Sum(nil)), nil
}

// errNoTraceFiles is why a directory without trace files has no digest.
var errNoTraceFiles = errors.New("trace: no trace files")
