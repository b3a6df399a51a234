package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	rlscope "repro"
	"repro/internal/report"
	"repro/internal/trace"
)

// TestPromotionEquivalence: however a trace was chunked, framed and analyzed
// on its way in, once sealed its entry is the one AddDir builds from the same
// store directory. Each step is checked against the model: the listing rows
// in first-write order, the summaries, the fleet document at zero Engine
// runs, uncorrected analyzes under a random walk of filters (the offline
// result-only document, zero Engine runs), the corrected analyze (the
// offline corrected document, one Engine run for both ids), and the refusal
// codes of an append to each.
func TestPromotionEquivalence(t *testing.T) {
	filters := []string{`{}`, `{"procs":[0]}`, `{"procs":[1]}`, `{"procs":[1,0]}`, `{"procs":[7]}`, `{"workers":2}`}
	tr := twoProcTrace(t, 120)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := newScenario(t, Config{MaxWorkers: 1, Calibration: scenarioCal})
		sc.pick = rng.Intn

		// Random chunk sizes, a random frame format per chunk (seeds 0 and 1
		// are pure v1 and pure v2), and analyzes under random filters thrown
		// in mid-stream so the incremental state has history.
		for lo, seq := 0, 0; lo < len(tr.Events); seq++ {
			hi := min(lo+1+rng.Intn(400), len(tr.Events))
			format := trace.FormatV1
			if seed == 1 || (seed > 1 && rng.Intn(2) == 0) {
				format = trace.FormatV2
			}
			frame, _, err := trace.EncodeEventsFormat(tr.Events[lo:hi], format)
			if err != nil {
				t.Fatal(err)
			}
			sc.append("live", seq, chunk{b: frame, end: hi}, tr)
			if rng.Intn(3) == 0 {
				sc.analyze("live", filters[rng.Intn(len(filters))])
			}
			lo = hi
		}
		// Labels, a host, and a process the metadata names but no event
		// mentions.
		meta := tr.Meta
		meta.Procs = maps.Clone(meta.Procs)
		meta.Procs[7] = trace.ProcInfo{Name: "idle", Parent: 0}
		meta.Labels, meta.Host = map[string]string{"algo": "ppo"}, "node-1"
		body, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		sc.seal("live", string(body))
		sc.addDir("twin", sc.traces["live"].dir)
		sc.list("")
		sc.summary("live")
		sc.summary("twin")
		sc.query(`{"filter":{"id":"live"},"group_by":["label.algo"]}`)
		for i := 0; i < 12; i++ {
			sc.analyze("live", filters[rng.Intn(len(filters))])
		}
		sc.analyze("live", `{"workers":1,"correction":true}`)
		sc.analyze("twin", `{"workers":1,"correction":true}`)
		sc.appendNext("live")
		sc.appendNext("twin")
		if tail := sc.trail[len(sc.trail)-2:]; tail[0] != ErrCodeTraceSealed || tail[1] != ErrCodeTraceExists {
			t.Fatalf("seed %d: appends to the sealed trace and its twin: %q", seed, tail)
		}
	}
}

// TestOpenTraceLockIsPrivate: one open trace's analysis lock — held for a
// whole epoch, however long — is nobody else's business. With it held, the
// listing (that trace's row included), summaries and fleet queries answer.
func TestOpenTraceLockIsPrivate(t *testing.T) {
	s := newScenario(t, Config{MaxWorkers: 2}).s
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
	sealedDoc := offlineDoc(t, rlscope.FromDir(refDir), docOpts{})
	openDoc := offlineDoc(t, rlscope.FromTrace(&trace.Trace{Events: slices.Clone(tr.Events)}), docOpts{})

	s := newScenario(t, Config{MaxWorkers: 2}).s
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
			want := openDoc
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
