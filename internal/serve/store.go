package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"repro/internal/disk"
)

// DiskStore is the persistent tier of the report cache: encoded report
// documents (analysis documents and fleet result sets alike) keyed by the
// same content address the LRU uses — trace DirDigest plus canonicalized
// options — and written as files, so a restarted server answers its first
// request from disk with zero Engine runs, and a fleet of servers pointed
// at one shared directory answer from each other's work.
//
// Entries are immutable by construction (the key is a content address and
// document encoding is deterministic), so concurrent writers of the same
// key write the same bytes and last-rename-wins is harmless. Writes are
// crash-safe: the entry is framed with a length header and landed via a
// same-directory rename, so a torn write either never appears under its
// final name or fails the frame check on read and is treated as a miss —
// the caller recomputes and rewrites it.
type DiskStore struct {
	fs  disk.FS
	dir string

	hits, misses, writes atomic.Int64
}

// storeMagic frames one store entry: "rlsreport1 <body-len>\n" + body.
// A reader that finds fewer bytes than the header promises is looking at
// a torn write and ignores the entry.
const storeMagic = "rlsreport1 "

// reportFileSuffix names store entries on disk.
const reportFileSuffix = ".rlsreport"

// NewDiskStore opens (creating if needed) a report store directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := disk.OS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("serve: creating report store: %w", err)
	}
	return &DiskStore{fs: disk.OS, dir: dir}, nil
}

// path maps a cache key to its file: keys embed hex digests and option
// canonicalizations of unbounded length, so the filename is the key's own
// sha256 — still a pure function of content.
func (s *DiskStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+reportFileSuffix)
}

// Get returns the stored bytes for key. A missing, torn, or malformed
// entry is a miss.
func (s *DiskStore) Get(key string) ([]byte, bool) {
	data, err := s.fs.ReadFile(s.path(key), nil)
	body, ok := parseStoreEntry(data)
	if err != nil || !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return body, true
}

// parseStoreEntry validates the length frame and returns the body.
func parseStoreEntry(data []byte) ([]byte, bool) {
	if !bytes.HasPrefix(data, []byte(storeMagic)) {
		return nil, false
	}
	rest := data[len(storeMagic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, false
	}
	n, err := strconv.Atoi(string(rest[:nl]))
	if err != nil || n < 0 || len(rest)-nl-1 != n {
		return nil, false
	}
	return rest[nl+1:], true
}

// Put persists body under key: framed, into a temporary file in the store
// directory, renamed into place with no sync. Persistence is best-effort
// cache population — an error leaves the hot tier authoritative — but is
// still reported so callers can surface disk trouble.
func (s *DiskStore) Put(key string, body []byte) error {
	head := fmt.Appendf(nil, "%s%d\n", storeMagic, len(body))
	if err := s.fs.Replace(s.path(key), head, body); err != nil {
		return fmt.Errorf("serve: report store write: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// storeStats is the persistent tier's slice of the /healthz document.
type storeStats struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Writes  int64  `json:"writes"`
}

// tieredStore composes the in-memory LRU (hot tier) with an optional
// DiskStore (persistent tier). Gets check the LRU first, then disk —
// promoting disk hits into the LRU; adds populate both. With no disk tier
// it degrades to exactly the old LRU behavior.
type tieredStore struct {
	lru  *reportCache
	disk *DiskStore // nil when no -store-reports directory is configured
}

// get returns the cached bytes for key from the hottest tier holding it. A
// disk hit is promoted into the LRU, its Content-Length value built there.
func (t *tieredStore) get(key string) (storedBody, bool) {
	if body, ok := t.lru.get(key); ok {
		return body, true
	}
	if t.disk == nil {
		return storedBody{}, false
	}
	if b, ok := t.disk.Get(key); ok {
		return t.lru.add(key, b), true
	}
	return storedBody{}, false
}

// add populates both tiers. Disk errors are swallowed here — the hot tier
// already holds the bytes, and a read-only store directory should degrade
// the service to LRU-only, not fail requests.
func (t *tieredStore) add(key string, body []byte) {
	t.lru.add(key, body)
	if t.disk != nil {
		_ = t.disk.Put(key, body)
	}
}

// stats snapshots the persistent tier for /healthz.
func (t *tieredStore) stats() storeStats {
	if t.disk == nil {
		return storeStats{}
	}
	return storeStats{
		Enabled: true,
		Dir:     t.disk.dir,
		Hits:    t.disk.hits.Load(),
		Misses:  t.disk.misses.Load(),
		Writes:  t.disk.writes.Load(),
	}
}
