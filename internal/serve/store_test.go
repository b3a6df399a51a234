package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestDiskStoreRoundTrip(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get("missing"); ok {
		t.Fatal("hit on empty store")
	}
	body := []byte(`{"some":"report"}` + "\n")
	if err := store.Put("key1", body); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Get("key1")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("get after put: ok=%v body=%q", ok, got)
	}
	// Overwriting with the same bytes (the only legal overwrite — keys are
	// content addresses) is fine.
	if err := store.Put("key1", body); err != nil {
		t.Fatal(err)
	}
	if n := diskEntries(t, store); n != 1 {
		t.Fatalf("%d entries, want 1", n)
	}
}

// diskEntries counts the store's entry files, reading none of them.
func diskEntries(t *testing.T, s *DiskStore) int {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(s.dir, "*"+reportFileSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestDiskStoreFrameCheck: an entry that is not one whole frame — garbage,
// or a header with no newline — is a miss, not corrupt data, and the next
// Put repairs it. TestFaultSchedule's power losses cut entries short and
// empty them.
func TestDiskStoreFrameCheck(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{"not a framed entry", storeMagic + "12345"} {
		if err := os.WriteFile(store.path("key"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := store.Get("key"); ok {
			t.Fatalf("entry %q served as a hit", data)
		}
	}
	body := []byte("full report body\n")
	if err := store.Put("key", body); err != nil {
		t.Fatal(err)
	}
	if got, ok := store.Get("key"); !ok || !bytes.Equal(got, body) {
		t.Fatalf("repaired entry: ok=%v body=%q", ok, got)
	}
}

// TestDiskStoreSurvivesReopen: a second DiskStore over the same directory
// — a restarted server, or another server in the fleet — sees the entries.
func TestDiskStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	first, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Put("shared", []byte("doc")); err != nil {
		t.Fatal(err)
	}
	second, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := second.Get("shared"); !ok || string(got) != "doc" {
		t.Fatalf("reopened store: ok=%v body=%q", ok, got)
	}
}

// TestTieredStorePromotion: a disk hit lands in the LRU, its Content-Length
// value built on promotion, so the second get never touches disk.
func TestTieredStorePromotion(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := &tieredStore{lru: newReportCache(1 << 20), disk: disk}
	if err := disk.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := ts.get("k"); !ok || string(got.b) != "v" || !slices.Equal(got.length, []string{"1"}) {
		t.Fatalf("tiered get: ok=%v body=%q length=%q", ok, got.b, got.length)
	}
	if hits := disk.hits.Load(); hits != 1 {
		t.Fatalf("disk hits %d, want 1", hits)
	}
	if got, ok := ts.get("k"); !ok || string(got.b) != "v" || !slices.Equal(got.length, []string{"1"}) {
		t.Fatalf("promoted get: ok=%v body=%q length=%q", ok, got.b, got.length)
	}
	if hits := disk.hits.Load(); hits != 1 {
		t.Fatalf("second get went to disk (hits %d), want LRU promotion", hits)
	}
	// add populates both tiers.
	ts.add("k2", []byte("v2"))
	if _, ok := disk.Get("k2"); !ok {
		t.Fatal("add did not reach the disk tier")
	}
	// Without a disk tier the store degrades to the LRU alone.
	bare := &tieredStore{lru: newReportCache(1 << 20)}
	bare.add("k3", []byte("v3"))
	if got, ok := bare.get("k3"); !ok || string(got.b) != "v3" {
		t.Fatalf("LRU-only get: ok=%v body=%q", ok, got.b)
	}
	if st := bare.stats(); st.Enabled {
		t.Fatal("LRU-only store reports a disk tier")
	}
}
