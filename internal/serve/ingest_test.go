package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	rlscope "repro"
	"repro/internal/trace"
)

// quickstartFrames encodes the quickstart trace as n chunk frames plus its
// metadata — what a streaming profiler would ship.
func quickstartFrames(tb testing.TB, steps, n int) (chunks [][]byte, meta trace.Meta) {
	tb.Helper()
	tr := quickstartTrace(tb, steps)
	return eventFrames(tb, tr.Events, (len(tr.Events)+n-1)/n), tr.Meta
}

func errCode(tb testing.TB, rec interface{ Result() *http.Response }) string {
	tb.Helper()
	var env ErrorEnvelope
	resp := rec.Result()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		tb.Fatalf("decoding error envelope: %v", err)
	}
	return env.Error.Code
}

// eventFrames encodes events as consecutive chunk frames of at most per
// events each.
func eventFrames(tb testing.TB, events []trace.Event, per int) [][]byte {
	tb.Helper()
	var chunks [][]byte
	for lo := 0; lo < len(events); lo += per {
		chunk, _, err := trace.EncodeEvents(events[lo:min(lo+per, len(events))])
		if err != nil {
			tb.Fatal(err)
		}
		chunks = append(chunks, chunk)
	}
	return chunks
}

// frameChunks cuts tr's events into n frames, as the driver appends them.
func frameChunks(tb testing.TB, tr *trace.Trace, n int) []chunk {
	tb.Helper()
	per := (len(tr.Events) + n - 1) / n
	var out []chunk
	for i, b := range eventFrames(tb, tr.Events, per) {
		out = append(out, chunk{b: b, end: min((i+1)*per, len(tr.Events))})
	}
	return out
}

// TestIngestIncrementalLocality pins the acceptance criterion on the serve
// layer, on counters: every analyze of a growing live trace sweeps at most
// the events that arrived since the previous one plus a constant — for a
// trace four times as long exactly as for the short one — runs zero batch
// engines, and batches everything appended in between into exactly one
// epoch.
func TestIngestIncrementalLocality(t *testing.T) {
	// sweepSlack is that constant: twice analysis' window split size (a
	// chunk can land across two windows, each swept whole).
	const perChunk, every, sweepSlack = 512, 4, 2 * 4096
	for _, steps := range []int{400, 1600} {
		s := newScenario(t, Config{}).s
		h := s.Handler()
		chunks := eventFrames(t, quickstartTrace(t, steps).Events, perChunk)

		epochs, maxSwept := 0, 0
		for seq, chunk := range chunks {
			rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/loc/chunks?seq=%d", seq), string(chunk))
			if rec.Code != http.StatusOK {
				t.Fatalf("append %d: %d %s", seq, rec.Code, rec.Body)
			}
			if (seq+1)%every != 0 && seq != len(chunks)-1 {
				continue
			}
			before, _ := s.IncrementalStats("loc")
			if rec := doReq(t, h, "POST", "/v1/traces/loc/analyze", `{}`); rec.Code != http.StatusOK {
				t.Fatalf("analyze: %d %s", rec.Code, rec.Body)
			}
			epochs++
			after, ok := s.IncrementalStats("loc")
			if !ok {
				t.Fatal("no incremental stats for live trace")
			}
			if after.Epochs != epochs || after.Chunks != seq+1 {
				t.Fatalf("analyze %d: %+v, want %d epochs over %d chunks", epochs, after, epochs, seq+1)
			}
			maxSwept = max(maxSwept, after.EventsSwept-before.EventsSwept)
		}
		if limit := every*perChunk + sweepSlack; maxSwept > limit {
			t.Fatalf("steps=%d: one epoch of %d events swept %d, want at most %d", steps, every*perChunk, maxSwept, limit)
		}
		if st, _ := s.IncrementalStats("loc"); st.Windows < 2 {
			t.Fatalf("steps=%d: %d events never split the timeline: %+v", steps, st.Events, st)
		}
		if runs := s.EngineRuns(); runs != 0 {
			t.Fatalf("live path started %d batch engine runs", runs)
		}
	}
}

// TestLiveAppendDuringAnalyze races the two halves of the epoch hand-off:
// one goroutine streams chunks while another keeps analyzing, so epochs of
// arbitrary size land on window state that is being split and swept. The
// sealed document must still be the offline Engine's, byte for byte.
func TestLiveAppendDuringAnalyze(t *testing.T) {
	sc := newScenario(t, Config{})
	s, store := sc.s, sc.cfg.StoreDir
	h := s.Handler()
	tr := quickstartTrace(t, 600)
	chunks := eventFrames(t, tr.Events, 256)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for seq, chunk := range chunks {
			rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/race/chunks?seq=%d", seq), string(chunk))
			if rec.Code != http.StatusOK {
				t.Errorf("append %d: %d %s", seq, rec.Code, rec.Body)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// 404 until the first append creates the trace.
			rec := doReq(t, h, "POST", "/v1/traces/race/analyze", `{}`)
			if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
				t.Errorf("analyze: %d %s", rec.Code, rec.Body)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	metaBody, err := json.Marshal(tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doReq(t, h, "POST", "/v1/traces/race/seal", string(metaBody)); rec.Code != http.StatusOK {
		t.Fatalf("seal: %d %s", rec.Code, rec.Body)
	}
	rec := doReq(t, h, "POST", "/v1/traces/race/analyze", `{}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("sealed analyze: %d %s", rec.Code, rec.Body)
	}
	if offline := offlineDoc(t, rlscope.FromDir(filepath.Join(store, "race")), docOpts{}); !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Fatalf("live document diverges from offline engine run:\nlive:\n%s\noffline:\n%s", rec.Body, offline)
	}
	if st, _ := s.IncrementalStats("race"); st.Chunks != len(chunks) || st.Windows < 2 {
		t.Fatalf("final stats %+v, want %d chunks over a split timeline", st, len(chunks))
	}
}

// TestIngestProtocolErrors: every refusal of the write surface, each with
// the code the model names. Ids that break the rule (invalid_trace_id), no
// seq (bad_request), an undecodable first chunk (bad_chunk, and no trace
// comes of it), an append to a registered id (trace_exists), a seal of an
// unknown one (unknown_trace), a create body with an unknown field. Then, on
// a live trace: a gap (out_of_order_sequence, refused on its seq alone
// before the frame is looked at), an identical replay (a duplicate of one
// chunk), a diverging one (chunk_conflict), correction
// (correction_unsupported), and after its seal an append, decodable or not,
// and a second seal (trace_sealed).
func TestIngestProtocolErrors(t *testing.T) {
	tr := quickstartTrace(t, 5)
	c := frameChunks(t, tr, 2)
	garbage := chunk{b: []byte("not a chunk frame"), end: -1}
	sc := newScenario(t, Config{}).addDir("qs", quickstartDir(t, 5))
	for _, id := range badIDs {
		sc.append(id, 0, c[0], tr)
	}
	sc.create(`{"id":"` + badIDs[2] + `"}`)
	sc.append("run", -1, c[0], tr)
	sc.append("run", 0, garbage, tr)
	sc.append("qs", 0, c[0], tr)
	sc.seal("ghost", "")
	sc.create(`{"bogus":1}`)

	sc.append("run", 0, c[0], tr)
	sc.append("run", 5, c[1], tr)
	sc.append("run", 5, garbage, tr)
	sc.append("run", 0, c[0], tr)
	sc.append("run", 0, c[1], tr)
	sc.analyze("run", `{"correction":true}`)
	sc.seal("run", "")
	sc.append("run", 1, c[1], tr)
	sc.append("run", 1, garbage, tr)
	sc.seal("run", "")
	bad, sealed := ErrCodeInvalidTraceID, ErrCodeTraceSealed
	sc.answered(bad, bad, bad, bad, ErrCodeBadRequest, ErrCodeBadChunk, ErrCodeTraceExists, ErrCodeUnknownTrace, ErrCodeBadRequest,
		"", ErrCodeOutOfOrderSeq, ErrCodeOutOfOrderSeq, "", ErrCodeChunkConflict, ErrCodeCorrectionUnsupported, "", sealed, sealed, sealed)
}

// TestSealRefusesUnknownFields: a seal body naming a field trace.Meta does
// not have — a misspelled "labels" — is a 400 bad_request, not a seal that
// silently drops it (every fleet query filtering on the label would then
// miss the trace). The trace stays open, and the corrected body seals it with
// its labels, which the listing filters on.
func TestSealRefusesUnknownFields(t *testing.T) {
	tr := quickstartTrace(t, 5)
	sc := newScenario(t, Config{})
	sc.append("run", 0, frameChunks(t, tr, 1)[0], tr)
	sc.seal("run", `{"workload":"w","lables":{"algo":"ppo"}}`)
	sc.summary("run")
	sc.seal("run", `{"workload":"w","labels":{"algo":"ppo"}}`)
	if rows := sc.list("label.algo=ppo"); len(rows) != 1 {
		t.Fatalf("%d rows under the label, want the sealed trace", len(rows))
	}
	sc.answered("", ErrCodeBadRequest, "", "", "")
}

// TestIngestMultipartIsBadChunk: the append body has one shape, the raw
// frame. A multipart body — the shape that used to carry a client-computed
// sidecar beside a perfectly good frame — is just bytes that do not decode:
// 400 bad_chunk, and neither a trace nor a store directory comes of it.
func TestIngestMultipartIsBadChunk(t *testing.T) {
	tr := quickstartTrace(t, 5)
	sc := newScenario(t, Config{})
	sc.append("mp", 0, multipartChunk(t, frameChunks(t, tr, 1)[0].b), tr)
	sc.summary("mp")
	sc.answered(ErrCodeBadChunk, ErrCodeUnknownTrace)
}

// TestIngestTrailingBytesIsBadChunk: a frame followed by bytes no reader
// would ever look at is refused whole — 400 bad_chunk, in either format —
// instead of being stored and digested with its padding; the frame itself is
// then accepted under the same sequence number.
func TestIngestTrailingBytesIsBadChunk(t *testing.T) {
	tr := quickstartTrace(t, 5)
	for _, format := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		frame, _, err := trace.EncodeEventsFormat(tr.Events, format)
		if err != nil {
			t.Fatal(err)
		}
		sc := newScenario(t, Config{})
		sc.append("pad", 0, chunk{b: append(slices.Clip(frame), 1, 2, 3), end: -1}, tr)
		sc.append("pad", 0, chunk{b: frame, end: len(tr.Events)}, tr)
		sc.answered(ErrCodeBadChunk, "")
	}
}

// unreadable is a request body the handler must refuse without reading.
type unreadable struct{ tb testing.TB }

func (u unreadable) Read([]byte) (int, error) {
	u.tb.Error("the body of a request refused on its Content-Length was read")
	return 0, io.EOF
}

// zeros is an endless body of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestIngestOversizedChunk: a chunk body over maxChunkBytes is 413
// bad_request and creates nothing — refused on its declared Content-Length
// before a byte is read, and without one as soon as the bytes pass the limit.
// A declared length never sizes a buffer: a request declaring the limit and
// sending ten bytes allocates kilobytes, not the limit.
func TestIngestOversizedChunk(t *testing.T) {
	sc := newScenario(t, Config{})
	s, store := sc.s, sc.cfg.StoreDir
	h := s.Handler()
	send := func(body io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/traces/big/chunks?seq=0", body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, c := range []struct {
		name   string
		body   io.Reader
		length int64
	}{
		{"declared", unreadable{t}, maxChunkBytes + 1},
		{"undeclared", io.LimitReader(zeros{}, maxChunkBytes+1), -1},
	} {
		rec := send(c.body, c.length)
		if rec.Code != http.StatusRequestEntityTooLarge || errCode(t, rec) != ErrCodeBadRequest {
			t.Errorf("%s oversized body: %d %s, want 413 %s", c.name, rec.Code, rec.Body, ErrCodeBadRequest)
		}
	}
	if s.lookup("big") != nil {
		t.Fatal("an oversized append created the trace")
	}
	if entries, err := os.ReadDir(store); err != nil || len(entries) != 0 {
		t.Fatalf("an oversized append left %d entries in the store (err %v)", len(entries), err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := send(strings.NewReader("0123456789"), maxChunkBytes)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || errCode(t, rec) != ErrCodeBadChunk {
		t.Fatalf("ten bytes declared as %d: %d %s, want 400 %s", maxChunkBytes, rec.Code, rec.Body, ErrCodeBadChunk)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("ten bytes declared as %d allocated %d B: a buffer was sized from the header", maxChunkBytes, d)
	}
}

// TestIngestDisabledWithoutStore: a server started without a store rejects
// the whole write surface with 403 ingest_disabled.
func TestIngestDisabledWithoutStore(t *testing.T) {
	tr := quickstartTrace(t, 5)
	sc := newScenario(t, Config{StoreDir: noStore}).addDir("qs", quickstartDir(t, 5))
	sc.append("run", 0, frameChunks(t, tr, 2)[0], tr)
	sc.create(`{"id":"run"}`)
	sc.answered(ErrCodeIngestDisabled, ErrCodeIngestDisabled)
}

// TestIngestStoreRefusals: a store the server cannot write, a path that is
// a regular file, is the store's failure, 500 store_failed, not an id
// collision, and the answer does not say where the store is. A store directory that already holds a trace is one: an id
// streamed in before a restart answers 409 trace_exists to a create and to
// an append.
func TestIngestStoreRefusals(t *testing.T) {
	tr := quickstartTrace(t, 5)
	c := frameChunks(t, tr, 2)
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sc := newScenario(t, Config{StoreDir: file})
	sc.append("run", 0, c[0], tr)
	sc.create(`{"id":"run"}`)
	sc.answered(ErrCodeStoreFailed, ErrCodeStoreFailed)

	sc = newScenario(t, Config{})
	sc.append("run", 0, c[0], tr)
	sc.restart()
	sc.summary("run")
	sc.create(`{"id":"run"}`)
	sc.append("run", 1, c[1], tr)
	sc.answered("", ErrCodeUnknownTrace, ErrCodeTraceExists, ErrCodeTraceExists)
}

// TestLiveListingAndSummary: live traces appear in /v1/traces with their
// lifecycle state, and the summary endpoint works over the chunks landed so
// far. Sealing flips the state everywhere, and the sealed metadata's
// originating host surfaces in the listing for fleet host filters. The
// metadata also names a process that logged no event: the listing row, the
// summary and AddDir on the same directory all count it.
func TestLiveListingAndSummary(t *testing.T) {
	tr := quickstartTrace(t, 10)
	sc := newScenario(t, Config{})
	for seq, c := range frameChunks(t, tr, 3) {
		sc.append("live1", seq, c, tr)
	}
	if rows := sc.list(""); len(rows) != 1 || rows[0].State != StateOpen || rows[0].Chunks != 3 {
		t.Fatalf("live listing %+v", rows)
	}
	sc.summary("live1")
	meta := tr.Meta
	meta.Host = "gpu-node-3"
	meta.Procs = maps.Clone(meta.Procs)
	meta.Procs[5] = trace.ProcInfo{Name: "idle-worker", Parent: 0}
	body, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	sc.seal("live1", string(body))
	if rows := sc.list("host=gpu-node-3"); len(rows) != 1 || rows[0].State != StateSealed || rows[0].Workload != "quickstart" {
		t.Fatalf("sealed listing %+v", rows)
	}
	sc.summary("live1")
	sc.addDir("twin", sc.traces["live1"].dir)
	sc.list("")
	if procs := sc.traces["live1"].entry.info.Procs; procs != 2 {
		t.Fatalf("AddDir over the sealed directory counts %d processes, want 2", procs)
	}
}
