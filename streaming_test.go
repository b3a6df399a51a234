package rlscope

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/trace"
)

// engineDirResults streams a chunked trace directory through the Engine,
// returning results plus the run's streaming statistics.
func engineDirResults(dir string, opts ...EngineOption) (map[ProcID]*Result, StreamStats, error) {
	rep, err := NewEngine(opts...).Analyze(context.Background(), FromDir(dir))
	if err != nil {
		if rep != nil {
			return nil, rep.Stats, err
		}
		return nil, StreamStats{}, err
	}
	return rep.Results, rep.Stats, nil
}

// writeWorkloadTrace persists a profiled workload trace with small chunks so
// the streaming property tests cross many chunk boundaries.
func writeWorkloadTrace(t *testing.T, tr *Trace, chunkBytes int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := trace.NewWriter(dir, chunkBytes)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.Append(tr.Events...)
	if err := w.Close(tr.Meta); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// TestEngineDirMatchesMaterialized asserts the tentpole acceptance property
// on the public API: for randomized multi-process workload traces chunked
// on disk, streaming FromDir is byte-identical to materializing the trace
// at Workers 1..8, with and without a MaxResidentBytes budget.
func TestEngineDirMatchesMaterialized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tr := randomWorkloadTrace(seed)
		dir := writeWorkloadTrace(t, tr, 2048)
		loaded, err := trace.ReadDir(dir)
		if err != nil {
			t.Fatalf("seed %d: ReadDir: %v", seed, err)
		}
		want := renderResults(engineResults(loaded, WithWorkers(1)))
		for workers := 1; workers <= 8; workers++ {
			for _, budget := range []int64{0, 8 << 10} {
				got, _, err := engineDirResults(dir, WithWorkers(workers), WithMaxResidentBytes(budget))
				if err != nil {
					t.Fatalf("seed %d workers %d budget %d: FromDir analysis: %v", seed, workers, budget, err)
				}
				if renderResults(got) != want {
					t.Fatalf("seed %d workers %d budget %d: streaming diverges from materialized",
						seed, workers, budget)
				}
			}
		}
	}
}

// TestEngineDirRepeatable asserts run-to-run stability of the streaming
// path at full concurrency under a tight budget — neither scheduling order
// nor eviction timing may leak into results.
func TestEngineDirRepeatable(t *testing.T) {
	tr := randomWorkloadTrace(55)
	dir := writeWorkloadTrace(t, tr, 2048)
	first, _, err := engineDirResults(dir, WithMaxResidentBytes(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	want := renderResults(first)
	for i := 0; i < 5; i++ {
		got, _, err := engineDirResults(dir, WithMaxResidentBytes(4<<10))
		if err != nil {
			t.Fatal(err)
		}
		if renderResults(got) != want {
			t.Fatalf("run %d: streaming result changed between identical invocations", i)
		}
	}
}

// TestEngineDirReportsResidency asserts the public stats surface: a budget
// keeps the streaming engine's peak resident events below the materialized
// trace size on a realistic profiled workload.
func TestEngineDirReportsResidency(t *testing.T) {
	tr := randomWorkloadTrace(8)
	tr.Sort()
	dir := writeWorkloadTrace(t, tr, 1024)
	_, stats, err := engineDirResults(dir, WithWorkers(1), WithMaxResidentBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != len(tr.Events) {
		t.Fatalf("streamed %d events, trace has %d", stats.Events, len(tr.Events))
	}
	if stats.PeakResidentEvents >= len(tr.Events) {
		t.Fatalf("peak resident %d events, want below trace size %d", stats.PeakResidentEvents, len(tr.Events))
	}
	if stats.Chunks < 2 {
		t.Fatalf("expected multiple chunks, got %d", stats.Chunks)
	}
}

// resultDoc renders dir's analysis as the result-only document
// `rlscope-analyze -json -result-only` prints.
func resultDoc(t *testing.T, dir string) string {
	t.Helper()
	rep, err := NewEngine(WithWorkers(2)).Analyze(context.Background(), FromDir(dir))
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var doc bytes.Buffer
	if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.String()
}

// TestSidecarEncodingNeverReachesResults: the sidecar plans the analysis and
// nothing more, so the committed directory with pre-binary JSON sidecars, a
// copy with binary ones, a copy mixing the two and a copy with none at all
// analyze to the same document.
func TestSidecarEncodingNeverReachesResults(t *testing.T) {
	const fixture = "internal/trace/testdata/legacy-json-sidecars"
	want := resultDoc(t, fixture)
	if !strings.Contains(want, `"backpropagation"`) {
		t.Fatalf("the fixture's document names none of its operations:\n%s", want)
	}
	r, err := trace.OpenDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	// One letter per chunk: b rewrites its sidecar in the binary encoding,
	// j keeps the JSON one, - removes it.
	for _, layout := range []string{"bbb", "jbj", "---"} {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.NumChunks(); i++ {
			side := filepath.Join(dir, strings.TrimSuffix(r.ChunkName(i), ".rlstrace")+".rlsidx")
			switch layout[i] {
			case '-':
				err = os.Remove(side)
			case 'b':
				var ix *trace.ChunkIndex
				var data []byte
				if ix, err = r.Index(i); err == nil {
					if data, err = ix.AppendBinary(nil); err == nil {
						err = os.WriteFile(side, data, 0o644)
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := resultDoc(t, dir); got != want {
			t.Errorf("sidecars %s: document diverges from the JSON-sidecar directory's:\n%s\nwant:\n%s", layout, got, want)
		}
	}
}
