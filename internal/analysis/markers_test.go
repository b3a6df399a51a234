package analysis_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/calib"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// TestMarkersAreInert: no sweep reads an overhead marker, so an uncorrected
// analysis of a profiled trace written with every marker gives the
// result-only bytes of the same trace written without them, at every worker
// count and budget. A chunk file is read without its markers, so no marker is
// ever resident, and the run still counts every record it walked. The
// residency estimate counts a routed chunk twice, as its decode buffer and as
// its copy in the windows, so the bound is the trace's events that are not
// markers plus the most of them one chunk holds.
func TestMarkersAreInert(t *testing.T) {
	for _, spec := range []workloads.Spec{
		{Algo: "PPO2", Env: "Hopper", Model: backend.Graph, TotalSteps: 120, Seed: 3},
		{Algo: "DDPG", Env: "Walker2D", Model: backend.EagerPyTorch, TotalSteps: 60, Seed: 5},
		{Algo: "SAC", Env: "HalfCheetah", Model: backend.Autograph, TotalSteps: 60, Seed: 7},
	} {
		run, err := workloads.Run(spec, trace.Full())
		if err != nil {
			t.Fatal(err)
		}
		stripped := &trace.Trace{Meta: run.Trace.Meta, Events: slices.DeleteFunc(slices.Clone(run.Trace.Events),
			func(e trace.Event) bool { return e.Kind == trace.KindOverhead })}
		records := len(run.Trace.Events)
		if len(stripped.Events) == records {
			t.Fatalf("%s: a Full-flag trace with no overhead marker", spec.Name())
		}
		withDir, withoutDir := writeDir(t, run.Trace), writeDir(t, stripped)
		bound := len(stripped.Events) + maxChunkEvents(t, withDir)
		for _, workers := range []int{1, 4} {
			for _, budget := range []int64{0, 4 << 10} {
				name := fmt.Sprintf("%s workers=%d budget=%d", spec.Name(), workers, budget)
				with, got := resultOnly(t, withDir, workers, budget)
				_, want := resultOnly(t, withoutDir, workers, budget)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: results with the markers differ from the results without them", name)
				}
				if with.Events != records || with.PeakResidentEvents > bound {
					t.Errorf("%s: walked %d records of %d, peak resident %d events, over %d",
						name, with.Events, records, with.PeakResidentEvents, bound)
				}
			}
		}
	}
}

// TestMarkerOnlyProcessKeepsItsResult: a process that recorded nothing but
// overhead markers has the empty result in an uncorrected analysis, whether
// its markers are swept (a materialized trace lends its runs, markers and
// all) or stepped over (chunk files), as when chunk files were swept with
// them. Correction erases the process.
func TestMarkerOnlyProcessKeepsItsResult(t *testing.T) {
	tr := &trace.Trace{Meta: trace.Meta{Workload: "markers", Procs: map[trace.ProcID]trace.ProcInfo{
		0: {Name: "trainer", Parent: -1}, 1: {Name: "idle", Parent: 0},
	}}}
	for i := vclock.Time(0); i < 50; i++ {
		tr.Events = append(tr.Events,
			trace.Event{Kind: trace.KindCPU, Cat: trace.CatPython, Proc: 0, Start: 10 * i, End: 10*i + 5},
			trace.Event{Kind: trace.KindOverhead, Overhead: trace.OverheadAnnotation, Proc: 1, Start: 10*i + 1, End: 10*i + 1})
	}
	dir := writeDir(t, tr)
	cal := &calib.Calibration{Annotation: vclock.Nanosecond}
	for _, c := range []struct {
		name string
		src  analysis.Source
		opts []analysis.EngineOption
		want bool
	}{
		{"materialized", analysis.FromTrace(tr), nil, true},
		{"chunk files", analysis.FromDir(dir), nil, true},
		{"corrected chunk files", analysis.FromDir(dir), []analysis.EngineOption{analysis.WithCorrection(cal)}, false},
	} {
		rep, err := analysis.NewEngine(c.opts...).Analyze(context.Background(), c.src)
		if err != nil {
			t.Fatal(err)
		}
		res, ok := rep.Results[1]
		if ok != c.want || ok && (len(res.ByKey) != 0 || len(res.Transitions) != 0 || res.SpanStart != 0 || res.SpanEnd != 0) {
			t.Errorf("%s: the marker-only process's result is %+v (present: %v), want present: %v and empty", c.name, res, ok, c.want)
		}
	}
}

// writeDir writes tr to a fresh directory in 16 KiB chunks.
func writeDir(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := trace.NewWriter(dir, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(tr.Events...)
	if err := w.Close(tr.Meta); err != nil {
		t.Fatal(err)
	}
	return dir
}

// maxChunkEvents is the most events that are not markers one chunk of dir
// holds.
func maxChunkEvents(t *testing.T, dir string) (most int) {
	t.Helper()
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumChunks(); i++ {
		events, err := r.ReadChunk(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, len(slices.DeleteFunc(events, func(e trace.Event) bool { return e.Kind == trace.KindOverhead })))
	}
	return most
}

// resultOnly is an uncorrected analysis of dir: its stats, and its
// `rlscope-analyze -json -result-only` document.
func resultOnly(t *testing.T, dir string, workers int, budget int64) (analysis.StreamStats, []byte) {
	t.Helper()
	rep, err := analysis.NewEngine(analysis.WithWorkers(workers), analysis.WithMaxResidentBytes(budget)).
		Analyze(context.Background(), analysis.FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return rep.Stats, buf.Bytes()
}
