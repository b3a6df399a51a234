package calib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// markedEvents is a random multi-process event list in which every third
// event or so is an overhead marker — of every kind, CUPTI ones under a few
// API names, some of kinds and names the calibration knows nothing of. Events
// are in time order per process unless shuffled, which makes the markers of a
// process arrive out of order.
func markedEvents(rng *rand.Rand, n int, shuffled bool) []trace.Event {
	apis := []string{"cudaLaunchKernel", "cudaMemcpyAsync", "cudaStreamSynchronize", "uncalibrated"}
	var events []trace.Event
	var now vclock.Time
	for i := 0; i < n; i++ {
		now += vclock.Time(rng.Intn(400)) // zero steps: markers sharing an instant
		e := trace.Event{Proc: trace.ProcID(rng.Intn(4)), Start: now, End: now}
		switch rng.Intn(6) {
		case 0, 1:
			e.Kind = trace.KindOverhead
			e.Overhead = trace.OverheadKind(rng.Intn(6)) // OverheadNone and an unknown kind included
			if e.Overhead == trace.OverheadCUPTI {
				e.Name = apis[rng.Intn(len(apis))]
			}
		case 2:
			e.Kind, e.Name = trace.KindOp, "step"
			e.End = now + vclock.Time(rng.Intn(3000))
		case 3:
			e.Kind, e.Name = trace.KindPhase, fmt.Sprintf("phase%d", rng.Intn(2))
			e.End = now + vclock.Time(rng.Intn(9000))
		default:
			e.Kind, e.Cat = trace.KindCPU, trace.CatBackend
			e.End = now + vclock.Time(rng.Intn(900))
		}
		events = append(events, e)
	}
	if shuffled {
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	}
	return events
}

var streamCal = &Calibration{
	Annotation: 90, Interception: 40, CUDAIntercept: 25,
	CUPTI: map[string]vclock.Duration{"cudaLaunchKernel": 3000, "cudaMemcpyAsync": 700, "cudaStreamSynchronize": 0},
}

// refStreamCorrector is the construction NewStreamCorrector had before it
// scanned: decode every relevant chunk, keep the markers, sort, fold. Kept as
// the oracle.
func refStreamCorrector(t *testing.T, r *trace.Reader, cal *Calibration, procs []trace.ProcID) *Corrector {
	t.Helper()
	wanted := func(p trace.ProcID) bool { return len(procs) == 0 || slices.Contains(procs, p) }
	byProc := map[trace.ProcID][]marker{}
	var buf []trace.Event
	for i := 0; i < r.NumChunks(); i++ {
		ix, err := r.Index(i)
		if err != nil {
			t.Fatal(err)
		}
		relevant := false
		for p := range ix.Procs {
			relevant = relevant || wanted(p)
		}
		if !relevant {
			continue
		}
		if buf, err = r.ReadChunk(i, buf[:0]); err != nil {
			t.Fatal(err)
		}
		for _, e := range buf {
			if e.Kind != trace.KindOverhead || !wanted(e.Proc) {
				continue
			}
			if d := cal.MeanFor(e.Overhead, e.Name); d > 0 {
				byProc[e.Proc] = append(byProc[e.Proc], marker{e.Start, d})
			}
		}
	}
	c := &Corrector{shifts: map[trace.ProcID]shiftIndex{}}
	for p, ms := range byProc {
		c.shifts[p] = buildShiftFromMarkers(ms)
	}
	return c
}

// writeDir writes events as a chunked directory in the given format.
func writeDir(t *testing.T, dir string, events []trace.Event, format trace.Format) {
	t.Helper()
	w, err := trace.NewWriter(dir, 2048, trace.WithFormat(format))
	if err != nil {
		t.Fatal(err)
	}
	w.Append(events...)
	if err := w.Close(trace.Meta{Workload: "stream-corrector"}); err != nil {
		t.Fatal(err)
	}
}

// streamDirs writes events four ways: v1, v2, v1 with every other chunk
// re-encoded as v2, and v1 under the JSON sidecars directories had before
// the binary encoding.
func streamDirs(t *testing.T, events []trace.Event) map[string]string {
	t.Helper()
	base := t.TempDir()
	dirs := map[string]string{}
	for _, name := range []string{"v1", "v2", "mixed", "legacy-sidecars"} {
		dirs[name] = filepath.Join(base, name)
	}
	writeDir(t, dirs["v1"], events, trace.FormatV1)
	writeDir(t, dirs["v2"], events, trace.FormatV2)
	writeDir(t, dirs["mixed"], events, trace.FormatV1)
	writeDir(t, dirs["legacy-sidecars"], events, trace.FormatV1)
	sidecar := func(dir, chunk string) string {
		return filepath.Join(dir, strings.TrimSuffix(chunk, ".rlstrace")+".rlsidx")
	}
	write := func(path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mixed, err := trace.OpenDir(dirs["mixed"])
	if err != nil || mixed.NumChunks() < 8 {
		t.Fatalf("want several chunks, got %v (%v)", mixed, err)
	}
	for i := 1; i < mixed.NumChunks(); i += 2 {
		chunk, err := mixed.ReadChunk(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		frame, ix, err := trace.EncodeEventsFormat(chunk, trace.FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := ix.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		write(filepath.Join(dirs["mixed"], mixed.ChunkName(i)), frame)
		write(sidecar(dirs["mixed"], mixed.ChunkName(i)), doc)
	}
	r, err := trace.OpenDir(dirs["legacy-sidecars"])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumChunks(); i++ {
		ix, err := r.Index(i)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(ix)
		if err != nil {
			t.Fatal(err)
		}
		write(sidecar(dirs["legacy-sidecars"], r.ChunkName(i)), doc)
	}
	return dirs
}

// TestStreamCorrectorMatchesDecodedMarkers is the pre-pass's property test:
// over every directory shape, with and without a process filter, markers in
// and out of time order, the Corrector built from the marker scan corrects
// every event and every sidecar span exactly as the one built from decoded
// chunks does, and reports the same progress.
func TestStreamCorrectorMatchesDecodedMarkers(t *testing.T) {
	for _, shuffled := range []bool{false, true} {
		events := markedEvents(rand.New(rand.NewSource(61)), 6000, shuffled)
		for name, dir := range streamDirs(t, events) {
			for _, procs := range [][]trace.ProcID{nil, {2}, {0, 3}, {9}} {
				r, err := trace.OpenDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s, shuffled %v, procs %v", name, shuffled, procs)
				want := refStreamCorrector(t, r, streamCal, procs)
				var reports [][3]int
				got, err := NewStreamCorrector(context.Background(), r, streamCal, procs, func(done, total, events int) {
					reports = append(reports, [3]int{done, total, events})
				})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if len(got.shifts) != len(want.shifts) {
					t.Fatalf("%s: indexes for %d processes, want %d", what, len(got.shifts), len(want.shifts))
				}
				if len(procs) == 0 && len(want.shifts) < 4 {
					t.Fatalf("%s: only %d processes carry calibrated markers", what, len(want.shifts))
				}
				var gc, wc Cursor
				for _, e := range events {
					g, w := e, e
					if gk, wk := got.MapEvent(&g, &gc), want.MapEvent(&w, &wc); gk != wk || g != w {
						t.Fatalf("%s: %+v corrected to %+v (kept %v), want %+v (kept %v)", what, e, g, gk, w, wk)
					}
				}
				n := r.NumChunks()
				for i := 0; i < n; i++ {
					ix, err := r.Index(i)
					if err != nil {
						t.Fatal(err)
					}
					for p, sp := range ix.Procs {
						if g, w := got.MapSpan(p, sp), want.MapSpan(p, sp); g != w {
							t.Fatalf("%s: chunk %d span %+v mapped to %+v, want %+v", what, i, sp, g, w)
						}
					}
				}
				// One report per chunk, in order, the last with every event
				// of the scanned chunks.
				if len(reports) != n || reports[n-1][0] != n || reports[n-1][1] != n {
					t.Fatalf("%s: %d reports for %d chunks, last %v", what, len(reports), n, reports[len(reports)-1])
				}
				if len(procs) == 0 && reports[n-1][2] != len(events) {
					t.Fatalf("%s: scanned %d events of %d", what, reports[n-1][2], len(events))
				}
			}
		}
	}
}

// TestStreamCorrectorCancelMidPrepass: cancelled from its own progress
// callback, the pre-pass stops before the next chunk with the context's
// error, and what it reported until then is the partial progress the Engine
// hands on as StreamStats.
func TestStreamCorrectorCancelMidPrepass(t *testing.T) {
	events := markedEvents(rand.New(rand.NewSource(67)), 6000, false)
	dir := filepath.Join(t.TempDir(), "trace")
	writeDir(t, dir, events, trace.FormatV1)
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.ReadChunk(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.ReadChunk(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last [3]int
	c, err := NewStreamCorrector(ctx, r, streamCal, nil, func(done, total, events int) {
		last = [3]int{done, total, events}
		if done == 2 {
			cancel()
		}
	})
	if c != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("corrector %v, err %v; want none and context.Canceled", c, err)
	}
	if want := [3]int{2, r.NumChunks(), len(first) + len(second)}; last != want {
		t.Fatalf("last progress %v, want %v", last, want)
	}
}

// TestStreamCorrectorAllocatesNearItsIndex pins what the pre-pass allocates
// on a fixed fixture — a profiled toy run with every overhead marker, in
// 64 KiB chunks, through a warm Reader — against the bytes of the index it
// builds: at most twice them. The markers are logged in blocks that are
// never regrown and each index is allocated once, at its exact length; an
// index grown by appending as the markers arrive costs 5.0 times here.
func TestStreamCorrectorAllocatesNearItsIndex(t *testing.T) {
	run := toyRun(1000, trace.Full(), 3)
	dir := filepath.Join(t.TempDir(), "trace")
	w, err := trace.NewWriter(dir, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(run.Trace.Events...)
	if err := w.Close(run.Trace.Meta); err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Corrector {
		c, err := NewStreamCorrector(context.Background(), r, streamCal, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var index uint64 // the final index's bytes
	for _, ix := range build().shifts {
		index += uint64(8 * (len(ix.times) + len(ix.prefix)))
	}
	if index < 64<<10 {
		t.Fatalf("a %d-byte index: the fixture has too few markers to weigh the pre-pass", index)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2*index {
		t.Errorf("the pre-pass allocates %d B for a %d-byte index (%.2f×), want at most 2×", per, index, float64(per)/float64(index))
	}
}
