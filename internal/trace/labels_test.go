package trace

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/vclock"
)

// labeledTestDir writes a small trace directory whose metadata carries
// labels.
func labeledTestDir(t *testing.T, labels map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	w, err := NewWriter(dir, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ts := vclock.Time(i * 100)
		w.Append(Event{Proc: 0, Kind: KindCPU, Cat: CatPython, Start: ts, End: ts + 50, Name: "step"})
	}
	meta := Meta{
		Workload: "label-test",
		Labels:   labels,
		Procs:    map[ProcID]ProcInfo{0: {Name: "trainer", Parent: -1}},
	}
	if err := w.Close(meta); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLabelsRoundTrip: labels written at Close come back from OpenDir.
func TestLabelsRoundTrip(t *testing.T) {
	labels := map[string]string{"algo": "ppo", "framework": "tf", "experiment": "fig9"}
	dir := labeledTestDir(t, labels)
	r, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta().Labels; !reflect.DeepEqual(got, labels) {
		t.Fatalf("labels %v, want %v", got, labels)
	}
	// A label-less trace reads back with no labels key at all.
	bare, err := OpenDir(labeledTestDir(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := bare.Meta().Labels; len(got) != 0 {
		t.Fatalf("unlabeled trace has labels %v", got)
	}
}

// TestLabelsAffectDigest: labels live in meta.json, so they are part of
// the trace's content address — two otherwise-identical runs with
// different labels are different content to the report store.
func TestLabelsAffectDigest(t *testing.T) {
	d1, err := DirDigest(labeledTestDir(t, map[string]string{"algo": "ppo"}))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DirDigest(labeledTestDir(t, map[string]string{"algo": "dqn"}))
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("different labels digest identically")
	}
	d3, err := DirDigest(labeledTestDir(t, map[string]string{"algo": "ppo"}))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d3 {
		t.Fatal("same labels digest differently")
	}
}

// TestConvertDirPreservesLabels: format conversion rewrites chunks, never
// metadata — labels survive v1 -> v2 unchanged.
func TestConvertDirPreservesLabels(t *testing.T) {
	labels := map[string]string{"algo": "ppo", "seed": "42"}
	src := labeledTestDir(t, labels)
	dst := t.TempDir()
	if _, err := ConvertDir(context.Background(), src, dst); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta().Labels; !reflect.DeepEqual(got, labels) {
		t.Fatalf("converted labels %v, want %v", got, labels)
	}
}
