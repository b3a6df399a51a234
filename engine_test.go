package rlscope

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/calib"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// sequentialOracle computes the ground-truth per-process breakdown with the
// plain sequential sweep — the path every engine configuration must be
// byte-identical to.
func sequentialOracle(tr *Trace) map[ProcID]*Result {
	out := map[ProcID]*Result{}
	for _, p := range tr.ProcIDs() {
		out[p] = overlap.Compute(tr.ProcEvents(p))
	}
	return out
}

// engineSources enumerates the three standard sources over one on-disk
// trace; the materialized source reloads the directory so every source sees
// the same bytes.
func engineSources(t *testing.T, tr *Trace, dir string) map[string]func() Source {
	t.Helper()
	return map[string]func() Source{
		"FromTrace": func() Source { return FromTrace(tr) },
		"FromDir":   func() Source { return FromDir(dir) },
		"FromReader": func() Source {
			r, err := OpenTraceDir(dir)
			if err != nil {
				t.Fatalf("OpenTraceDir: %v", err)
			}
			return FromReader(r)
		},
	}
}

// TestEngineSourceEquivalence is the tentpole acceptance property: for
// randomized instrumented multi-process workload traces, Engine.Analyze is
// byte-identical to the sequential oracle over all three sources ×
// workers 1..8 × resident budgets.
func TestEngineSourceEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := randomWorkloadTrace(seed)
		dir := writeWorkloadTrace(t, tr, 2048)
		want := renderResults(sequentialOracle(tr))
		for name, mk := range engineSources(t, tr, dir) {
			for workers := 1; workers <= 8; workers++ {
				for _, budget := range []int64{0, 1, 8 << 10} {
					eng := NewEngine(WithWorkers(workers), WithMaxResidentBytes(budget))
					rep, err := eng.Analyze(context.Background(), mk())
					if err != nil {
						t.Fatalf("seed %d %s workers %d budget %d: %v", seed, name, workers, budget, err)
					}
					if got := renderResults(rep.Results); got != want {
						t.Fatalf("seed %d %s workers %d budget %d: Engine diverges from oracle",
							seed, name, workers, budget)
					}
					if rep.Corrected {
						t.Fatalf("seed %d %s: uncorrected run reported Corrected", seed, name)
					}
					if rep.Meta.Workload != tr.Meta.Workload {
						t.Fatalf("seed %d %s: report meta lost the workload label", seed, name)
					}
				}
			}
			// The stats surface against the same streaming run.
			if name == "FromDir" {
				got, stats, err := engineDirResults(dir, WithWorkers(3), WithMaxResidentBytes(4<<10))
				if err != nil {
					t.Fatalf("seed %d: FromDir with budget: %v", seed, err)
				}
				if renderResults(got) != want {
					t.Fatalf("seed %d: budgeted streaming run diverges from oracle", seed)
				}
				if stats.Events != len(tr.Events) {
					t.Fatalf("seed %d: streaming run decoded %d events, trace has %d",
						seed, stats.Events, len(tr.Events))
				}
			}
		}
	}
}

// syntheticCalibration builds a calibration covering every marker kind and
// every CUPTI API name present in the trace, with distinct nonzero costs so
// correction genuinely moves timestamps.
func syntheticCalibration(tr *Trace) *Calibration {
	cal := &Calibration{
		Annotation:    90 * vclock.Nanosecond,
		Interception:  210 * vclock.Nanosecond,
		CUDAIntercept: 340 * vclock.Nanosecond,
		CUPTI:         map[string]vclock.Duration{},
	}
	for _, e := range tr.Events {
		if e.Kind == trace.KindOverhead && e.Overhead == trace.OverheadCUPTI {
			if _, ok := cal.CUPTI[e.Name]; !ok {
				cal.CUPTI[e.Name] = vclock.Duration(120+30*len(cal.CUPTI)) * vclock.Nanosecond
			}
		}
	}
	return cal
}

// TestEngineCorrectionEquivalence asserts the new capability's acceptance
// property: WithCorrection over a streaming source produces results
// byte-identical to materialize-then-Correct-then-Analyze, for every worker
// count and resident budget — and under a budget it does so without holding
// the whole trace resident. A process recording nothing but overhead
// markers must vanish from corrected results on both paths.
func TestEngineCorrectionEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := randomWorkloadTrace(seed)
		// A process whose every event is an overhead marker: correction
		// erases it entirely.
		markerOnly := ProcID(97)
		start, _ := tr.Span()
		for i := 0; i < 5; i++ {
			at := start.Add(vclock.Duration(i) * vclock.Microsecond)
			tr.Events = append(tr.Events, Event{
				Kind: trace.KindOverhead, Overhead: trace.OverheadAnnotation,
				Proc: markerOnly, Start: at, End: at,
			})
		}
		tr.Sort()
		cal := syntheticCalibration(tr)
		dir := writeWorkloadTrace(t, tr, 2048)

		corrected := Correct(tr, cal)
		want := renderResults(sequentialOracle(corrected))
		if _, ok := sequentialOracle(corrected)[markerOnly]; ok {
			t.Fatalf("seed %d: oracle still contains the marker-only process", seed)
		}

		for name, mk := range engineSources(t, tr, dir) {
			for workers := 1; workers <= 8; workers += 3 {
				for _, budget := range []int64{0, 4 << 10} {
					eng := NewEngine(WithWorkers(workers), WithMaxResidentBytes(budget), WithCorrection(cal))
					rep, err := eng.Analyze(context.Background(), mk())
					if err != nil {
						t.Fatalf("seed %d %s workers %d budget %d: %v", seed, name, workers, budget, err)
					}
					if got := renderResults(rep.Results); got != want {
						t.Fatalf("seed %d %s workers %d budget %d: corrected Engine diverges from Correct-then-Analyze",
							seed, name, workers, budget)
					}
					if !rep.Corrected {
						t.Fatalf("seed %d %s: corrected run did not report Corrected", seed, name)
					}
					if _, ok := rep.Results[markerOnly]; ok {
						t.Fatalf("seed %d %s: marker-only process survived correction", seed, name)
					}
				}
			}
		}

		// Bounded memory: the corrected streaming run's peak residency must
		// stay below the materialized trace, proving the corrected
		// breakdown never required materializing it.
		eng := NewEngine(WithWorkers(1), WithMaxResidentBytes(8<<10), WithCorrection(cal))
		rep, err := eng.Analyze(context.Background(), FromDir(dir))
		if err != nil {
			t.Fatalf("seed %d: budgeted corrected stream: %v", seed, err)
		}
		if rep.Stats.PeakResidentEvents >= len(tr.Events) {
			t.Fatalf("seed %d: corrected streaming peak resident %d events, want below trace size %d",
				seed, rep.Stats.PeakResidentEvents, len(tr.Events))
		}
	}
}

// TestEngineCorrectedReportConsistency pins the Report surface across
// source kinds for one corrected Engine: both paths must agree that the
// results estimate the uninstrumented run (Meta.Config) and on how many
// events the source held (Stats.Events counts pre-correction events,
// markers included).
func TestEngineCorrectedReportConsistency(t *testing.T) {
	tr := randomWorkloadTrace(7)
	cal := syntheticCalibration(tr)
	dir := writeWorkloadTrace(t, tr, 2048)
	eng := NewEngine(WithWorkers(1), WithCorrection(cal))

	mat, err := eng.Analyze(context.Background(), FromTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	str, err := eng.Analyze(context.Background(), FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if mat.Meta.Config.Any() || str.Meta.Config.Any() {
		t.Fatalf("corrected reports must carry uninstrumented Config: materialized=%v streaming=%v",
			mat.Meta.Config, str.Meta.Config)
	}
	if mat.Stats.Events != len(tr.Events) || str.Stats.Events != len(tr.Events) {
		t.Fatalf("Stats.Events diverges across sources: materialized=%d streaming=%d trace=%d",
			mat.Stats.Events, str.Stats.Events, len(tr.Events))
	}
}

// TestEngineCorrectionPrepassPartialStats cancels during the correction
// pre-pass and asserts the partial Report still says how far it got.
func TestEngineCorrectionPrepassPartialStats(t *testing.T) {
	tr := randomWorkloadTrace(7)
	cal := syntheticCalibration(tr)
	dir := writeWorkloadTrace(t, tr, 512)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := NewEngine(WithCorrection(cal), WithProgress(func(p Progress) {
		if p.Stage == analysis.StageCorrect && p.ChunksDone >= 2 {
			cancel()
		}
	}))
	rep, err := eng.Analyze(ctx, FromDir(dir))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Stats.ChunksDecoded < 2 || rep.Stats.Events == 0 {
		t.Fatalf("pre-pass cancellation lost partial stats: %+v", rep)
	}
	if rep.Stats.Chunks == 0 {
		t.Fatalf("partial report missing total chunk count: %+v", rep.Stats)
	}
}

// TestEngineWithProcessesCorrected composes the process filter with the
// correction stage: results must match the filtered slice of
// Correct-then-Analyze even though the pre-pass skips chunks (and markers)
// of unrequested processes.
func TestEngineWithProcessesCorrected(t *testing.T) {
	tr := randomWorkloadTrace(8)
	cal := syntheticCalibration(tr)
	dir := writeWorkloadTrace(t, tr, 1024)
	corrected := Correct(tr, cal)
	procs := corrected.ProcIDs()
	target := procs[len(procs)-1]
	want := renderResults(map[ProcID]*Result{target: overlap.Compute(corrected.ProcEvents(target))})

	for name, mk := range engineSources(t, tr, dir) {
		eng := NewEngine(WithWorkers(2), WithCorrection(cal), WithProcesses(target))
		rep, err := eng.Analyze(context.Background(), mk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if renderResults(rep.Results) != want {
			t.Fatalf("%s: filtered corrected result diverges from Correct-then-Analyze", name)
		}
	}
}

// TestEngineWithProcesses asserts the process filter against per-process
// oracles on every source.
func TestEngineWithProcesses(t *testing.T) {
	tr := randomWorkloadTrace(5)
	dir := writeWorkloadTrace(t, tr, 2048)
	procs := tr.ProcIDs()
	target := procs[len(procs)-1]
	want := renderResults(map[ProcID]*Result{target: overlap.Compute(tr.ProcEvents(target))})

	for name, mk := range engineSources(t, tr, dir) {
		rep, err := NewEngine(WithWorkers(2), WithProcesses(target)).Analyze(context.Background(), mk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Results) != 1 {
			t.Fatalf("%s: filtered analysis returned %d processes, want 1", name, len(rep.Results))
		}
		if renderResults(rep.Results) != want {
			t.Fatalf("%s: filtered result diverges from per-process oracle", name)
		}
	}
	// A process absent from the trace: no result row at all.
	if results := engineResults(tr, WithWorkers(1), WithProcesses(12345)); len(results) != 0 {
		t.Fatalf("filtering on an absent process = %+v, want no results", results)
	}
	// Filtered streaming skips chunks contributing only other processes.
	rep, err := NewEngine(WithProcesses(target)).Analyze(context.Background(), FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.ChunksDecoded > rep.Stats.Chunks {
		t.Fatalf("decoded %d of %d chunks", rep.Stats.ChunksDecoded, rep.Stats.Chunks)
	}
}

// TestEngineProgressAndCancellation asserts the observability surface: the
// progress stream is monotone and stage-labelled (correction pre-pass, then
// analysis), and cancelling from a progress callback yields ctx.Err() plus
// a partial-stats report with no results.
func TestEngineProgressAndCancellation(t *testing.T) {
	tr := randomWorkloadTrace(6)
	cal := syntheticCalibration(tr)
	dir := writeWorkloadTrace(t, tr, 1024)

	var correctChunks, analyzeChunks int
	lastDone := map[string]int{}
	eng := NewEngine(WithWorkers(2), WithCorrection(cal), WithProgress(func(p Progress) {
		switch p.Stage {
		case analysis.StageCorrect:
			correctChunks++
		case analysis.StageAnalyze:
			analyzeChunks++
		default:
			t.Errorf("unknown progress stage %q", p.Stage)
		}
		if p.ChunksDone < lastDone[p.Stage] {
			t.Errorf("stage %s progress went backwards: %d after %d", p.Stage, p.ChunksDone, lastDone[p.Stage])
		}
		lastDone[p.Stage] = p.ChunksDone
	}))
	rep, err := eng.Analyze(context.Background(), FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if correctChunks == 0 || analyzeChunks == 0 {
		t.Fatalf("progress stages missing: correct=%d analyze=%d", correctChunks, analyzeChunks)
	}
	if correctChunks != rep.Stats.Chunks {
		t.Fatalf("correction pre-pass reported %d chunks, directory has %d", correctChunks, rep.Stats.Chunks)
	}

	// Cancel mid-analysis from the progress callback.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng = NewEngine(WithProgress(func(p Progress) {
		if p.ChunksDone >= 1 {
			cancel()
		}
	}))
	rep, err = eng.Analyze(ctx, FromDir(dir))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled Analyze returned a nil report; want partial stats")
	}
	if rep.Results != nil {
		t.Fatal("cancelled Analyze leaked partial results")
	}
	if rep.Stats.ChunksDecoded == 0 {
		t.Fatal("partial report carries no progress stats")
	}
}

// TestEngineErrors covers the degenerate inputs: the zero source, and a
// directory that is not a trace.
func TestEngineErrors(t *testing.T) {
	if _, err := NewEngine().Analyze(context.Background(), Source{}); err == nil {
		t.Fatal("zero source: want error")
	}
	if _, err := NewEngine().Analyze(context.Background(), FromDir(t.TempDir())); err == nil {
		t.Fatal("empty dir: want error")
	}
	// A nil context defaults to Background rather than panicking.
	tr := randomWorkloadTrace(2)
	var nilCtx context.Context
	rep, err := NewEngine(WithWorkers(1)).Analyze(nilCtx, FromTrace(tr))
	if err != nil || len(rep.Results) == 0 {
		t.Fatalf("nil ctx: rep=%v err=%v", rep, err)
	}
}

// TestEngineIsReusable runs one Engine over many sources and checks results
// stay stable — the Engine holds no per-analysis state.
func TestEngineIsReusable(t *testing.T) {
	tr := randomWorkloadTrace(9)
	dir := writeWorkloadTrace(t, tr, 2048)
	want := renderResults(sequentialOracle(tr))
	eng := NewEngine(WithWorkers(4), WithMaxResidentBytes(8<<10))
	for i := 0; i < 3; i++ {
		for name, mk := range engineSources(t, tr, dir) {
			rep, err := eng.Analyze(context.Background(), mk())
			if err != nil {
				t.Fatalf("round %d %s: %v", i, name, err)
			}
			if renderResults(rep.Results) != want {
				t.Fatalf("round %d %s: result drifted across reuses", i, name)
			}
		}
	}
}

// TestEngineConcurrentFromDir analyzes one FromDir source from two
// goroutines through one Engine: every analysis opens the directory for
// itself, so the two share no Reader and both match the sequential oracle.
func TestEngineConcurrentFromDir(t *testing.T) {
	tr := randomWorkloadTrace(5)
	dir := writeWorkloadTrace(t, tr, 2048)
	want := renderResults(sequentialOracle(tr))
	eng := NewEngine(WithWorkers(2))
	src := FromDir(dir)
	got := make([]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := eng.Analyze(context.Background(), src)
			if errs[i] = err; err == nil {
				got[i] = renderResults(rep.Results)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("analysis %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("analysis %d diverges from the sequential oracle", i)
		}
	}
}

// TestCorrectorMatchesCorrect pins the factored per-event stage to the
// materializing Correct: applying MapEvent over every event reproduces
// Correct's output exactly, and MapSpan's conservative bounds contain every
// corrected extent.
func TestCorrectorMatchesCorrect(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tr := randomWorkloadTrace(seed)
		cal := syntheticCalibration(tr)
		corr := calib.NewCorrector(tr, cal)

		want := Correct(tr, cal)
		got := &Trace{Meta: tr.Meta}
		got.Meta.Config = trace.Uninstrumented()
		for _, p := range tr.ProcIDs() {
			for _, e := range tr.ProcEvents(p) {
				ne := e
				if corr.MapEvent(&ne) {
					got.Events = append(got.Events, ne)
				}
			}
		}
		got.Sort()
		if len(got.Events) != len(want.Events) {
			t.Fatalf("seed %d: MapEvent kept %d events, Correct kept %d", seed, len(got.Events), len(want.Events))
		}
		for i := range got.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("seed %d: event %d diverges:\n map: %+v\n Correct: %+v",
					seed, i, got.Events[i], want.Events[i])
			}
		}

		// MapSpan bounds: per process, correct the whole-process span and
		// check every corrected event stays inside it.
		for _, p := range tr.ProcIDs() {
			events := tr.ProcEvents(p)
			sp := trace.ProcSpan{MinStart: events[0].Start, MaxEnd: events[0].End}
			for _, e := range events {
				if e.Start < sp.MinStart {
					sp.MinStart = e.Start
				}
				if e.End > sp.MaxEnd {
					sp.MaxEnd = e.End
				}
			}
			mapped := corr.MapSpan(p, sp)
			for _, e := range events {
				ne := e
				if !corr.MapEvent(&ne) {
					continue
				}
				if ne.Start < mapped.MinStart || ne.End > mapped.MaxEnd {
					t.Fatalf("seed %d proc %d: corrected event [%v,%v] escapes mapped span [%v,%v]",
						seed, p, ne.Start, ne.End, mapped.MinStart, mapped.MaxEnd)
				}
			}
		}
	}
}

// TestEngineOneEventCount pins the one definition of "events": whatever the
// source and whether or not the correction stage runs inside the pipeline,
// the last Progress notification of the analysis pass and the Report count
// the events read before the stage — markers included — and a materialized
// source, which has no chunk files, reports none.
func TestEngineOneEventCount(t *testing.T) {
	tr := randomWorkloadTrace(7)
	cal := syntheticCalibration(tr)
	dir := writeWorkloadTrace(t, tr, 2048)
	for name, mk := range engineSources(t, tr, dir) {
		for _, corrected := range []bool{false, true} {
			var last Progress
			opts := []EngineOption{WithWorkers(2), WithProgress(func(p Progress) {
				if p.Stage == analysis.StageAnalyze {
					last = p
				}
			})}
			if corrected {
				opts = append(opts, WithCorrection(cal))
			}
			rep, err := NewEngine(opts...).Analyze(context.Background(), mk())
			if err != nil {
				t.Fatalf("%s corrected=%v: %v", name, corrected, err)
			}
			if rep.Stats.Events != len(tr.Events) || last.Events != rep.Stats.Events {
				t.Fatalf("%s corrected=%v: Stats.Events=%d, final Progress.Events=%d, trace holds %d",
					name, corrected, rep.Stats.Events, last.Events, len(tr.Events))
			}
			if last.Shards != rep.Stats.Shards {
				t.Fatalf("%s corrected=%v: final Progress.Shards=%d, Stats.Shards=%d", name, corrected, last.Shards, rep.Stats.Shards)
			}
			if name == "FromTrace" {
				if last.Chunks != 0 || last.ChunksDone != 0 || rep.Stats.Chunks != 0 || rep.Stats.ChunksDecoded != 0 {
					t.Fatalf("materialized corrected=%v reports chunk files: progress %+v, stats %+v", corrected, last, rep.Stats)
				}
			} else if last.ChunksDone != rep.Stats.Chunks || last.Chunks != rep.Stats.Chunks {
				t.Fatalf("%s corrected=%v: final progress %d/%d chunks, directory has %d",
					name, corrected, last.ChunksDone, last.Chunks, rep.Stats.Chunks)
			}
		}
	}
}
