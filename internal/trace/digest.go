package trace

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/recycle"
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
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("trace: digesting trace dir: %w", err)
	}
	var names []string
	for _, ent := range entries {
		name := ent.Name()
		if name == metaFileName ||
			strings.HasSuffix(name, chunkSuffix) ||
			strings.HasSuffix(name, sidecarSuffix) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "", fmt.Errorf("trace: digesting trace dir %s: no trace files", dir)
	}
	sort.Strings(names)
	d := newDigester()
	var buf []byte
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return "", fmt.Errorf("trace: digesting trace dir: %w", err)
		}
		// Room for the file and one byte more, so the read that finds EOF
		// fits too: the buffer is sized to each larger file once, not grown
		// by doubling.
		if fi, err := f.Stat(); err == nil && fi.Size() >= int64(cap(buf)) {
			buf = make([]byte, 0, fi.Size()+1)
		}
		buf, err = recycle.ReadAll(buf, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("trace: digesting trace dir: %w", err)
		}
		d.file(name, buf)
	}
	return hex.EncodeToString(d.h.Sum(nil)), nil
}
