package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	rlscope "repro"
	"repro/internal/calib"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// twoProcTrace profiles a trainer and a simulator worker it forks, so process
// filters have something to choose between.
func twoProcTrace(tb testing.TB, steps int) *trace.Trace {
	tb.Helper()
	p := rlscope.New(rlscope.Options{Workload: "two-proc", Flags: rlscope.FullInstrumentation(), Seed: 1})
	trainer := p.NewProcess("trainer", -1, 0)
	ctx := cuda.NewContext(trainer, gpu.NewDevice(-1), cuda.DefaultCosts())
	worker := p.NewProcess("worker", 0, 0)
	trainer.SetPhase("training")
	for step := 0; step < steps; step++ {
		trainer.WithOperation("inference", func() {
			trainer.CallBackend("policy.forward", func() {
				ctx.LaunchKernel("dense", 3*vclock.Microsecond)
				ctx.StreamSynchronize()
			})
		})
		worker.WithOperation("simulation", func() {
			worker.CallSimulator("env.step", func() { worker.Clock().Advance(90 * vclock.Microsecond) })
		})
	}
	trainer.Close()
	worker.Close()
	return p.MustTrace()
}

// offlineResultDoc is what `rlscope-analyze -json -result-only` prints for
// dir under the given process filter.
func offlineResultDoc(tb testing.TB, dir string, procs ...trace.ProcID) []byte {
	tb.Helper()
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1), rlscope.WithProcesses(procs...)).
		Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func mustOK(tb testing.TB, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	tb.Helper()
	rec := doReq(tb, h, method, path, body)
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
	}
	return rec
}

// listingRows decodes a GET /v1/traces body.
func listingRows(tb testing.TB, body []byte) []TraceInfo {
	tb.Helper()
	var listing struct {
		Traces []TraceInfo `json:"traces"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		tb.Fatal(err)
	}
	return listing.Traces
}

// TestPromotionEquivalence: however a trace was chunked, framed and analyzed
// on its way in, once sealed its entry is the one AddDir builds from the same
// store directory — listing row, summary bytes, fleet-query document and
// digest, modulo the id — registered in first-write order; its uncorrected
// analyzes are the offline result-only document at zero Engine runs under any
// sequence of filters; and its corrected analyze is the registered one's.
func TestPromotionEquivalence(t *testing.T) {
	cal := &calib.Calibration{Annotation: 50 * vclock.Nanosecond, Interception: 30 * vclock.Nanosecond, CUDAIntercept: 20 * vclock.Nanosecond}
	tr := twoProcTrace(t, 120)
	tr.Meta.Labels = map[string]string{"algo": "ppo"}
	tr.Meta.Host = "node-1"
	// A process the metadata names but no event mentions.
	tr.Meta.Procs[7] = trace.ProcInfo{Name: "idle", Parent: 0}
	metaBody, err := json.Marshal(tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	filters := []string{`{}`, `{"procs":[0]}`, `{"procs":[1]}`, `{"procs":[1,0]}`, `{"procs":[7]}`, `{"workers":2}`}
	filterProcs := [][]trace.ProcID{nil, {0}, {1}, {0, 1}, {7}, nil}

	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, store := liveServer(t, Config{MaxWorkers: 2, Calibration: cal})
		h := s.Handler()

		// Random chunk sizes, a random frame format per chunk (seeds 0 and 1
		// are pure v1 and pure v2), and analyzes under random filters thrown
		// in mid-stream so the incremental state has history.
		seq := 0
		for lo := 0; lo < len(tr.Events); seq++ {
			hi := min(lo+1+rng.Intn(400), len(tr.Events))
			format := trace.FormatV1
			if seed == 1 || (seed > 1 && rng.Intn(2) == 0) {
				format = trace.FormatV2
			}
			frame, _, err := trace.EncodeEventsFormat(tr.Events[lo:hi], format)
			if err != nil {
				t.Fatal(err)
			}
			mustOK(t, h, "POST", fmt.Sprintf("/v1/traces/live/chunks?seq=%d", seq), string(frame))
			if rng.Intn(3) == 0 {
				mustOK(t, h, "POST", "/v1/traces/live/analyze", filters[rng.Intn(len(filters))])
			}
			lo = hi
		}
		mustOK(t, h, "POST", "/v1/traces/live/seal", string(metaBody))
		dir := filepath.Join(store, "live")

		// The twin: the same directory, registered — on this server (after
		// the streamed trace, and listed after it) and on a fresh one that
		// shares no cache with it.
		if _, err := s.AddDir("twin", dir); err != nil {
			t.Fatal(err)
		}
		ref := NewServer(Config{MaxWorkers: 2, Calibration: cal})
		t.Cleanup(ref.Close)
		if _, err := ref.AddDir("twin", dir); err != nil {
			t.Fatal(err)
		}
		rh := ref.Handler()
		asLive := func(body []byte) []byte { return bytes.ReplaceAll(body, []byte(`"twin"`), []byte(`"live"`)) }

		rows := listingRows(t, mustOK(t, h, "GET", "/v1/traces", "").Body.Bytes())
		if len(rows) != 2 || rows[0].ID != "live" || rows[1].ID != "twin" {
			t.Fatalf("seed %d: listing %+v, want live then twin", seed, rows)
		}
		twinRow := rows[1]
		twinRow.ID = "live"
		if a, b := fmt.Sprintf("%+v", rows[0]), fmt.Sprintf("%+v", twinRow); a != b {
			t.Fatalf("seed %d: listing rows differ:\nlive: %s\ntwin: %s", seed, a, b)
		}
		liveSum := mustOK(t, h, "GET", "/v1/traces/live/summary", "").Body.Bytes()
		for _, twin := range [][]byte{
			mustOK(t, h, "GET", "/v1/traces/twin/summary", "").Body.Bytes(),
			mustOK(t, rh, "GET", "/v1/traces/twin/summary", "").Body.Bytes(),
		} {
			if !bytes.Equal(liveSum, asLive(twin)) {
				t.Fatalf("seed %d: summaries differ:\nlive:\n%s\ntwin:\n%s", seed, liveSum, twin)
			}
		}
		query := `{"filter":{"id":"live"},"group_by":["label.algo"]}`
		liveQ := mustOK(t, h, "POST", "/v1/query", query)
		twinQ := mustOK(t, rh, "POST", "/v1/query", `{"filter":{"id":"twin"},"group_by":["label.algo"]}`)
		if !bytes.Equal(liveQ.Body.Bytes(), asLive(twinQ.Body.Bytes())) {
			t.Fatalf("seed %d: fleet documents differ:\nlive:\n%s\ntwin:\n%s", seed, liveQ.Body, twinQ.Body)
		}
		if runs := liveQ.Header().Get("X-RLScope-Engine-Runs"); runs != "0" {
			t.Fatalf("seed %d: fleet query over the sealed trace ran %s engines", seed, runs)
		}

		// Uncorrected analyzes: a random walk over the filters, each the
		// offline result-only document, none an Engine run.
		for i := 0; i < 12; i++ {
			k := rng.Intn(len(filters))
			rec := mustOK(t, h, "POST", "/v1/traces/live/analyze", filters[k])
			if want := offlineResultDoc(t, dir, filterProcs[k]...); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("seed %d: analyze %s diverges from offline:\nserved:\n%s\noffline:\n%s", seed, filters[k], rec.Body, want)
			}
			if got := rec.Header().Get("X-RLScope-State"); got != StateSealed {
				t.Fatalf("seed %d: analyze %s state %q", seed, filters[k], got)
			}
		}
		if runs := s.EngineRuns(); runs != 0 {
			t.Fatalf("seed %d: uncorrected analyzes of the sealed trace ran %d engines", seed, runs)
		}

		// Corrected: the registered path, digest and document.
		liveC := mustOK(t, h, "POST", "/v1/traces/live/analyze", `{"workers":1,"correction":true}`)
		twinC := mustOK(t, rh, "POST", "/v1/traces/twin/analyze", `{"workers":1,"correction":true}`)
		if !bytes.Equal(liveC.Body.Bytes(), twinC.Body.Bytes()) {
			t.Fatalf("seed %d: corrected analyzes differ:\nlive:\n%s\ntwin:\n%s", seed, liveC.Body, twinC.Body)
		}
		var doc report.Analysis
		if err := json.Unmarshal(liveC.Body.Bytes(), &doc); err != nil || !doc.Corrected || doc.Stats == nil {
			t.Fatalf("seed %d: corrected analyze is not the full corrected document (err %v)", seed, err)
		}
		if a, b := liveC.Header().Get("X-RLScope-Digest"), twinC.Header().Get("X-RLScope-Digest"); a != b || a != rows[0].Digest {
			t.Fatalf("seed %d: digests: live %s, twin %s, listing %s", seed, a, b, rows[0].Digest)
		}
		if runs := s.EngineRuns(); runs != 1 {
			t.Fatalf("seed %d: corrected analyze ran %d engines, want 1", seed, runs)
		}

		// What remains of having been streamed: the refusal code and the
		// final counters.
		rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/live/chunks?seq=%d", seq), "any bytes")
		if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeTraceSealed {
			t.Fatalf("seed %d: append to the sealed trace: %d %s", seed, rec.Code, rec.Body)
		}
		rec = doReq(t, h, "POST", "/v1/traces/twin/chunks?seq=0", "any bytes")
		if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeTraceExists {
			t.Fatalf("seed %d: append to the registered twin: %d %s", seed, rec.Code, rec.Body)
		}
		if st, ok := s.IncrementalStats("live"); !ok || st.Chunks != seq || st.Events != len(tr.Events) {
			t.Fatalf("seed %d: final stats %+v ok=%v, want %d chunks of %d events", seed, st, ok, seq, len(tr.Events))
		}
		if _, ok := s.IncrementalStats("twin"); ok {
			t.Fatalf("seed %d: a registered directory reports incremental stats", seed)
		}
	}
}

// TestOpenTraceLockIsPrivate: one open trace's analysis lock — held for a
// whole epoch, however long — is nobody else's business. With it held, the
// listing (that trace's row included), summaries and fleet queries answer.
func TestOpenTraceLockIsPrivate(t *testing.T) {
	s, _ := liveServer(t, Config{MaxWorkers: 2})
	h := s.Handler()
	fleetDirs(t, s)
	chunks, _ := quickstartFrames(t, 10, 2)
	mustOK(t, h, "POST", "/v1/traces/busy/chunks?seq=0", string(chunks[0]))
	streamAndSeal(t, h, "done", nil)

	busy := s.lookup("busy").live
	busy.amu.Lock()
	defer busy.amu.Unlock()

	answers := make(chan string, 1)
	go func() {
		for _, req := range [][3]string{
			{"GET", "/v1/traces", ""},
			{"GET", "/v1/traces/run-a/summary", ""},
			{"GET", "/v1/traces/done/summary", ""},
			{"GET", "/v1/traces/busy/summary", ""},
			{"POST", "/v1/query", `{"group_by":["label.algo"]}`},
			{"POST", "/v1/traces/busy/chunks?seq=1", string(chunks[1])},
		} {
			if rec := doReq(t, h, req[0], req[1], req[2]); rec.Code != http.StatusOK {
				answers <- fmt.Sprintf("%s %s: %d %s", req[0], req[1], rec.Code, rec.Body)
				return
			}
		}
		answers <- ""
	}()
	select {
	case failure := <-answers:
		if failure != "" {
			t.Fatal(failure)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a request waited on another trace's analysis lock")
	}
	if rows := listingRows(t, mustOK(t, h, "GET", "/v1/traces", "").Body.Bytes()); len(rows) != 5 || rows[3].ID != "busy" || rows[3].Chunks != 2 {
		t.Fatalf("listing under a held analysis lock: %+v", rows)
	}
}

// TestSealSwap races one seal against every reader and a replaying writer of
// the same id. The entry is swapped, never absent: no request sees a 404;
// every answer is wholly the open trace's (last open digest, open document,
// no metadata) or wholly the sealed one's; the replayed append turns from
// duplicate to trace_sealed once and for good; the counters keep answering.
func TestSealSwap(t *testing.T) {
	tr := quickstartTrace(t, 200)
	tr.Meta.Labels = map[string]string{"algo": "ppo"}
	frames := eventFrames(t, tr.Events, 256)
	metaBody, err := json.Marshal(tr.Meta)
	if err != nil {
		t.Fatal(err)
	}

	// The two documents and digests an answer may carry, computed offline
	// from a locally landed copy of the same frames.
	refDir := t.TempDir()
	sink, err := trace.NewDirSink(refDir)
	if err != nil {
		t.Fatal(err)
	}
	for seq, frame := range frames {
		events, err := trace.DecodeChunkBytes(frame, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.AppendChunk(seq, frame, trace.BuildChunkIndex(events, int64(len(frame)))); err != nil {
			t.Fatal(err)
		}
	}
	openDigest := sink.Digest()
	if err := sink.Seal(tr.Meta); err != nil {
		t.Fatal(err)
	}
	sealDigest := sink.Digest()
	sealedDoc := offlineResultDoc(t, refDir)
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromDir(refDir))
	if err != nil {
		t.Fatal(err)
	}
	var openDoc bytes.Buffer
	if err := report.NewResultAnalysis(trace.Meta{}, rep.Results, false).Encode(&openDoc); err != nil {
		t.Fatal(err)
	}

	s, _ := liveServer(t, Config{MaxWorkers: 2})
	h := s.Handler()
	for seq, frame := range frames {
		mustOK(t, h, "POST", fmt.Sprintf("/v1/traces/swap/chunks?seq=%d", seq), string(frame))
	}
	last := len(frames) - 1

	// consistent checks one (state, digest, workload) triple.
	consistent := func(what, state, digest, workload string) {
		switch {
		case state == StateOpen && digest == openDigest && workload == "":
		case state == StateSealed && digest == sealDigest && workload == tr.Meta.Workload:
		default:
			t.Errorf("%s: state %q with digest %.12s and workload %q is neither the open trace (%.12s) nor the sealed one (%.12s)",
				what, state, digest, workload, openDigest, sealDigest)
		}
	}
	sealed := make(chan struct{})
	start := make(chan struct{})
	var wg, warm sync.WaitGroup
	// Each reader has answered once before the seal is sent, keeps going
	// until the seal has answered, then goes once more.
	reader := func(once func()) {
		wg.Add(1)
		warm.Add(1)
		go func() {
			defer wg.Done()
			<-start
			once()
			warm.Done()
			for done := false; !done && !t.Failed(); {
				select {
				case <-sealed:
					done = true
				default:
				}
				once()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		reader(func() {
			rec := doReq(t, h, "POST", "/v1/traces/swap/analyze", `{}`)
			if rec.Code != http.StatusOK {
				t.Errorf("analyze: %d %s", rec.Code, rec.Body)
				return
			}
			state, digest := rec.Header().Get("X-RLScope-State"), rec.Header().Get("X-RLScope-Digest")
			want := openDoc.Bytes()
			if state == StateSealed {
				want = sealedDoc
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("analyze: state %q served the other state's document", state)
			}
			var doc report.Analysis
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Errorf("analyze: %v", err)
			}
			consistent("analyze", state, digest, doc.Workload)
		})
	}
	reader(func() {
		rec := doReq(t, h, "GET", "/v1/traces?id=swap", "")
		if rec.Code != http.StatusOK {
			t.Errorf("listing: %d %s", rec.Code, rec.Body)
			return
		}
		rows := listingRows(t, rec.Body.Bytes())
		if len(rows) != 1 {
			t.Errorf("listing has %d rows for the id", len(rows))
			return
		}
		consistent("listing", rows[0].State, rows[0].Digest, rows[0].Workload)
	})
	reader(func() {
		rec := doReq(t, h, "GET", "/v1/traces/swap/summary", "")
		if rec.Code != http.StatusOK {
			t.Errorf("summary: %d %s", rec.Code, rec.Body)
			return
		}
		var sum TraceSummary
		if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
			t.Errorf("summary: %v", err)
		}
		if sum.Events != len(tr.Events) || sum.Chunks != len(frames) {
			t.Errorf("summary: %d events in %d chunks", sum.Events, sum.Chunks)
		}
		consistent("summary", sum.State, sum.Digest, sum.Workload)
	})
	reader(func() {
		rec := doReq(t, h, "POST", "/v1/query", `{"group_by":["label.algo"]}`)
		if rec.Code != http.StatusOK {
			t.Errorf("query: %d %s", rec.Code, rec.Body)
			return
		}
		var doc report.QueryDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Traces > 1 {
			t.Errorf("query: %d traces (err %v)", doc.Traces, err)
		}
		if runs := rec.Header().Get("X-RLScope-Engine-Runs"); runs != "0" {
			t.Errorf("query ran %s engines", runs)
		}
	})
	refused := false
	reader(func() {
		rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/swap/chunks?seq=%d", last), string(frames[last]))
		switch {
		case rec.Code == http.StatusConflict && errCode(t, rec) == ErrCodeTraceSealed:
			refused = true
		case rec.Code == http.StatusOK && !refused:
			var ar AppendResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil || !ar.Duplicate || ar.Digest != openDigest {
				t.Errorf("replayed append: %s (err %v)", rec.Body, err)
			}
		default:
			t.Errorf("replayed append (refused before: %v): %d %s", refused, rec.Code, rec.Body)
		}
	})
	reader(func() {
		if st, ok := s.IncrementalStats("swap"); !ok || st.Chunks > len(frames) {
			t.Errorf("incremental stats %+v ok=%v", st, ok)
		}
	})
	close(start)
	warm.Wait()
	rec := doReq(t, h, "POST", "/v1/traces/swap/seal", string(metaBody))
	close(sealed)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("seal: %d %s", rec.Code, rec.Body)
	}
	var sr SealResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || sr.Digest != sealDigest || sr.Chunks != len(frames) {
		t.Fatalf("seal response %s (err %v), want %d chunks at %s", rec.Body, err, len(frames), sealDigest)
	}
	if !refused {
		t.Fatal("the replayed append was never refused")
	}
	if st, ok := s.IncrementalStats("swap"); !ok || st.Chunks != len(frames) || st.Events != len(tr.Events) {
		t.Fatalf("final stats %+v ok=%v", st, ok)
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("%d engine runs", runs)
	}
}
