package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	rlscope "repro"
	"repro/internal/report"
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

// liveServer returns a server with ingest enabled and its store directory.
func liveServer(tb testing.TB, cfg Config) (*Server, string) {
	tb.Helper()
	store := tb.TempDir()
	cfg.StoreDir = store
	s := NewServer(cfg)
	tb.Cleanup(s.Close)
	return s, store
}

// TestIngestLifecycle drives the full live path: create, N concurrent
// appends (racing goroutines retrying on out-of-order rejections until
// their sequence number comes up), seal, analyze — and pins the tentpole
// equivalence: the live document is byte-identical to a fresh offline
// Engine run over the sealed store directory, and the stored directory is
// byte-identical (by content digest) to what a local writer produces.
func TestIngestLifecycle(t *testing.T) {
	s, store := liveServer(t, Config{})
	h := s.Handler()
	chunks, meta := quickstartFrames(t, 20, 6)

	rec := doReq(t, h, "POST", "/v1/traces", `{"id":"run42"}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	// Creating again is a 200 no-op.
	if rec := doReq(t, h, "POST", "/v1/traces", `{"id":"run42"}`); rec.Code != http.StatusOK {
		t.Fatalf("re-create: %d %s", rec.Code, rec.Body)
	}

	// Concurrent appends: each goroutine owns one sequence number and
	// retries on 409 until the sink is ready for it — at-least-once
	// delivery with reordering, the protocol's worst case.
	var wg sync.WaitGroup
	for seq := range chunks {
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			deadline := time.Now().Add(30 * time.Second)
			for {
				rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/run42/chunks?seq=%d", seq), string(chunks[seq]))
				if rec.Code == http.StatusOK {
					return
				}
				if code := errCode(t, rec); code != ErrCodeOutOfOrderSeq {
					t.Errorf("seq %d: unexpected rejection %d %s", seq, rec.Code, code)
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("seq %d: never accepted", seq)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(seq)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	metaBody, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	rec = doReq(t, h, "POST", "/v1/traces/run42/seal", string(metaBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("seal: %d %s", rec.Code, rec.Body)
	}
	var sealed SealResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sealed); err != nil {
		t.Fatal(err)
	}
	if sealed.Chunks != len(chunks) {
		t.Fatalf("sealed with %d chunks, want %d", sealed.Chunks, len(chunks))
	}

	// The stored directory is a real trace directory with the digest the
	// seal reported.
	dir := filepath.Join(store, "run42")
	onDisk, err := trace.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk != sealed.Digest {
		t.Fatalf("seal digest %s, directory digest %s", sealed.Digest, onDisk)
	}

	// Live analysis is byte-identical to a fresh offline Engine run over
	// the sealed directory, rendered as the same result-only document
	// `rlscope-analyze -json -result-only` prints.
	rec = doReq(t, h, "POST", "/v1/traces/run42/analyze", `{"workers":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("live analyze: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-RLScope-State"); got != StateSealed {
		t.Fatalf("analyze state header %q, want %q", got, StateSealed)
	}
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var offline bytes.Buffer
	if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&offline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), offline.Bytes()) {
		t.Fatalf("live document diverges from offline engine run:\nlive:\n%s\noffline:\n%s", rec.Body, offline.String())
	}
	// The live path never runs the batch engine.
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("live analysis started %d engine runs, want 0", runs)
	}

	// A repeat answers from the per-trace document cache.
	rec2 := doReq(t, h, "POST", "/v1/traces/run42/analyze", `{"workers":1}`)
	if got := rec2.Header().Get("X-RLScope-Cache"); got != "hit" {
		t.Fatalf("quiescent re-analyze: cache %q, want hit", got)
	}
	if !bytes.Equal(rec2.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatal("cached live document differs")
	}

	// Filtered analyzes of the sealed trace render the requested processes
	// of the result set stored at seal: byte-identical to an offline Engine
	// run under the same filter (a process the trace lacks included), and —
	// alternating filters, then back to the unfiltered request — never an
	// Engine run, although each request displaces the one cached document.
	for _, req := range []struct {
		body  string
		procs []trace.ProcID
	}{
		{`{"procs":[0]}`, []trace.ProcID{0}},
		{`{"procs":[7]}`, []trace.ProcID{7}},
		{`{"procs":[0]}`, []trace.ProcID{0}},
		{`{"workers":1}`, nil},
	} {
		got := doReq(t, h, "POST", "/v1/traces/run42/analyze", req.body)
		if got.Code != http.StatusOK {
			t.Fatalf("sealed analyze %s: %d %s", req.body, got.Code, got.Body)
		}
		rep, err := rlscope.NewEngine(rlscope.WithWorkers(1), rlscope.WithProcesses(req.procs...)).
			Analyze(context.Background(), rlscope.FromDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Body.Bytes(), want.Bytes()) {
			t.Fatalf("sealed analyze %s diverges from offline:\nlive:\n%s\noffline:\n%s", req.body, got.Body, want.String())
		}
		if runs := s.EngineRuns(); runs != 0 {
			t.Fatalf("sealed analyze %s: %d engine runs, want 0", req.body, runs)
		}
	}
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
		s, _ := liveServer(t, Config{})
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
	s, store := liveServer(t, Config{})
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
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromDir(filepath.Join(store, "race")))
	if err != nil {
		t.Fatal(err)
	}
	var offline bytes.Buffer
	if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&offline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), offline.Bytes()) {
		t.Fatalf("live document diverges from offline engine run:\nlive:\n%s\noffline:\n%s", rec.Body, offline.String())
	}
	if st, _ := s.IncrementalStats("race"); st.Chunks != len(chunks) || st.Windows < 2 {
		t.Fatalf("final stats %+v, want %d chunks over a split timeline", st, len(chunks))
	}
}

// TestIngestProtocolErrors covers every rejection path of the write surface
// with its stable error code.
func TestIngestProtocolErrors(t *testing.T) {
	s, _ := liveServer(t, Config{})
	h := s.Handler()
	chunks, _ := quickstartFrames(t, 5, 2)

	// Registered read-only ids cannot be appended to.
	if _, err := s.AddDir("qs", quickstartDir(t, 5)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"invalid id", "POST", "/v1/traces/.dot/chunks?seq=0", string(chunks[0]), http.StatusBadRequest, ErrCodeInvalidTraceID},
		{"traversal id", "POST", "/v1/traces/a..b/chunks?seq=0", string(chunks[0]), http.StatusBadRequest, ErrCodeInvalidTraceID},
		{"missing seq", "POST", "/v1/traces/run/chunks", string(chunks[0]), http.StatusBadRequest, ErrCodeBadRequest},
		{"undecodable chunk", "POST", "/v1/traces/run/chunks?seq=0", "not a chunk frame", http.StatusBadRequest, ErrCodeBadChunk},
		{"read-only collision", "POST", "/v1/traces/qs/chunks?seq=0", string(chunks[0]), http.StatusConflict, ErrCodeTraceExists},
		{"seal unknown", "POST", "/v1/traces/ghost/seal", "", http.StatusNotFound, ErrCodeUnknownTrace},
		{"bad create body", "POST", "/v1/traces", `{"bogus":1}`, http.StatusBadRequest, ErrCodeBadRequest},
	}
	for _, tc := range cases {
		rec := doReq(t, h, tc.method, tc.path, tc.body)
		if rec.Code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.wantStatus, rec.Body)
			continue
		}
		if code := errCode(t, rec); code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.wantCode)
		}
	}

	// The undecodable first chunk above created no trace.
	if s.lookup("run") != nil {
		t.Fatal("an undecodable first chunk created the trace")
	}

	// Sequence protocol on a real live trace.
	if rec := doReq(t, h, "POST", "/v1/traces/run/chunks?seq=0", string(chunks[0])); rec.Code != http.StatusOK {
		t.Fatalf("append 0: %d %s", rec.Code, rec.Body)
	}
	// Gap.
	rec := doReq(t, h, "POST", "/v1/traces/run/chunks?seq=5", string(chunks[1]))
	if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeOutOfOrderSeq {
		t.Fatalf("gap append: %d %s", rec.Code, rec.Body)
	}
	// A gap is refused on its sequence number alone, before the frame is
	// looked at.
	rec = doReq(t, h, "POST", "/v1/traces/run/chunks?seq=5", "not a chunk frame")
	if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeOutOfOrderSeq {
		t.Fatalf("gap append of an undecodable frame: %d %s", rec.Code, rec.Body)
	}
	// Identical replay: flagged duplicate, no error.
	rec = doReq(t, h, "POST", "/v1/traces/run/chunks?seq=0", string(chunks[0]))
	var ar AppendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("replay: %d %s", rec.Code, rec.Body)
	}
	if !ar.Duplicate || ar.Chunks != 1 {
		t.Fatalf("replay response %+v, want duplicate of 1 chunk", ar)
	}
	// Diverging replay.
	rec = doReq(t, h, "POST", "/v1/traces/run/chunks?seq=0", string(chunks[1]))
	if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeChunkConflict {
		t.Fatalf("conflicting replay: %d %s", rec.Code, rec.Body)
	}
	// Correction is a batch-only feature.
	rec = doReq(t, h, "POST", "/v1/traces/run/analyze", `{"correction":true}`)
	if rec.Code != http.StatusBadRequest || errCode(t, rec) != ErrCodeCorrectionUnsupported {
		t.Fatalf("live correction: %d %s", rec.Code, rec.Body)
	}
	// Post-seal appends are rejected.
	if rec := doReq(t, h, "POST", "/v1/traces/run/seal", ""); rec.Code != http.StatusOK {
		t.Fatalf("seal: %d %s", rec.Code, rec.Body)
	}
	rec = doReq(t, h, "POST", "/v1/traces/run/chunks?seq=1", string(chunks[1]))
	if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeTraceSealed {
		t.Fatalf("post-seal append: %d %s", rec.Code, rec.Body)
	}
	// So is a frame nobody could decode: the seal answers first.
	rec = doReq(t, h, "POST", "/v1/traces/run/chunks?seq=1", "not a chunk frame")
	if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeTraceSealed {
		t.Fatalf("post-seal append of an undecodable frame: %d %s", rec.Code, rec.Body)
	}
	rec = doReq(t, h, "POST", "/v1/traces/run/seal", "")
	if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeTraceSealed {
		t.Fatalf("double seal: %d %s", rec.Code, rec.Body)
	}
}

// TestSealRefusesUnknownFields: a seal body naming a field trace.Meta does
// not have — a misspelled "labels" — is a 400 bad_request, not a seal that
// silently drops it (every fleet query filtering on the label would then
// miss the trace). The trace stays open, and the corrected body seals it with
// its labels.
func TestSealRefusesUnknownFields(t *testing.T) {
	s, _ := liveServer(t, Config{})
	h := s.Handler()
	chunks, _ := quickstartFrames(t, 5, 1)
	mustOK(t, h, "POST", "/v1/traces/run/chunks?seq=0", string(chunks[0]))
	rec := doReq(t, h, "POST", "/v1/traces/run/seal", `{"workload":"w","lables":{"algo":"ppo"}}`)
	if rec.Code != http.StatusBadRequest || errCode(t, rec) != ErrCodeBadRequest {
		t.Fatalf("seal with an unknown field: %d %s", rec.Code, rec.Body)
	}
	mustOK(t, h, "POST", "/v1/traces/run/seal", `{"workload":"w","labels":{"algo":"ppo"}}`)
	if rec := mustOK(t, h, "GET", "/v1/traces?label.algo=ppo", ""); !strings.Contains(rec.Body.String(), `"id": "run"`) {
		t.Fatalf("sealed trace not listed under its label:\n%s", rec.Body)
	}
}

// TestIngestMultipartIsBadChunk: the append body has one shape, the raw
// frame. A multipart body — the shape that used to carry a client-computed
// sidecar beside a perfectly good frame — is just bytes that do not decode:
// 400 bad_chunk, and neither a trace nor a store directory comes of it.
func TestIngestMultipartIsBadChunk(t *testing.T) {
	s, store := liveServer(t, Config{})
	chunks, _ := quickstartFrames(t, 5, 1)
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	part, err := mw.CreateFormFile("chunk", "chunk.rlstrace")
	if err != nil {
		t.Fatal(err)
	}
	part.Write(chunks[0])
	if part, err = mw.CreateFormFile("index", "chunk.rlsidx"); err != nil {
		t.Fatal(err)
	}
	part.Write([]byte(`{"version":1}`))
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/traces/mp/chunks?seq=0", &body)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || errCode(t, rec) != ErrCodeBadChunk {
		t.Fatalf("multipart append: %d %s, want 400 %s", rec.Code, rec.Body, ErrCodeBadChunk)
	}
	if s.lookup("mp") != nil {
		t.Fatal("a multipart append created the trace")
	}
	if entries, err := os.ReadDir(store); err != nil || len(entries) != 0 {
		t.Fatalf("a multipart append left %d entries in the store (err %v)", len(entries), err)
	}
}

// TestIngestTrailingBytesIsBadChunk: a frame followed by bytes no reader
// would ever look at is refused whole — 400 bad_chunk, in either format —
// instead of being stored and digested with its padding; the frame itself is
// then accepted under the same sequence number.
func TestIngestTrailingBytesIsBadChunk(t *testing.T) {
	for _, format := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		s, _ := liveServer(t, Config{})
		h := s.Handler()
		chunks, _ := quickstartFrames(t, 5, 1)
		events, err := trace.DecodeChunkBytes(chunks[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, err := trace.EncodeEventsFormat(events, format)
		if err != nil {
			t.Fatal(err)
		}
		rec := doReq(t, h, "POST", "/v1/traces/pad/chunks?seq=0", string(frame)+"\x01\x02\x03")
		if rec.Code != http.StatusBadRequest || errCode(t, rec) != ErrCodeBadChunk {
			t.Fatalf("%v: padded append: %d %s, want 400 %s", format, rec.Code, rec.Body, ErrCodeBadChunk)
		}
		if s.lookup("pad") != nil {
			t.Fatalf("%v: a padded append created the trace", format)
		}
		if rec := doReq(t, h, "POST", "/v1/traces/pad/chunks?seq=0", string(frame)); rec.Code != http.StatusOK {
			t.Fatalf("%v: the frame without its padding: %d %s", format, rec.Code, rec.Body)
		}
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
	s, store := liveServer(t, Config{})
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
// the whole write surface.
func TestIngestDisabledWithoutStore(t *testing.T) {
	s := newTestServer(t, Config{}, quickstartDir(t, 5))
	h := s.Handler()
	chunks, _ := quickstartFrames(t, 5, 2)
	rec := doReq(t, h, "POST", "/v1/traces/run/chunks?seq=0", string(chunks[0]))
	if rec.Code != http.StatusForbidden || errCode(t, rec) != ErrCodeIngestDisabled {
		t.Fatalf("append without store: %d %s", rec.Code, rec.Body)
	}
	rec = doReq(t, h, "POST", "/v1/traces", `{"id":"run"}`)
	if rec.Code != http.StatusForbidden || errCode(t, rec) != ErrCodeIngestDisabled {
		t.Fatalf("create without store: %d %s", rec.Code, rec.Body)
	}
}

// TestLiveListingAndSummary: live traces appear in /v1/traces with their
// lifecycle state, and the summary endpoint works over the chunks landed so
// far.
func TestLiveListingAndSummary(t *testing.T) {
	s, store := liveServer(t, Config{})
	h := s.Handler()
	chunks, meta := quickstartFrames(t, 10, 3)
	for seq := range chunks {
		if rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/live1/chunks?seq=%d", seq), string(chunks[seq])); rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d %s", seq, rec.Code, rec.Body)
		}
	}

	var listing struct {
		Traces []TraceInfo `json:"traces"`
	}
	rec := doReq(t, h, "GET", "/v1/traces", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != 1 {
		t.Fatalf("listing has %d traces, want 1: %s", len(listing.Traces), rec.Body)
	}
	info := listing.Traces[0]
	if info.ID != "live1" || info.State != StateOpen || info.Chunks != len(chunks) {
		t.Fatalf("live listing %+v", info)
	}

	var sum TraceSummary
	rec = doReq(t, h, "GET", "/v1/traces/live1/summary", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("live summary: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	tr := quickstartTrace(t, 10)
	if sum.Events != len(tr.Events) || sum.State != StateOpen {
		t.Fatalf("live summary events=%d state=%q, want %d/%q", sum.Events, sum.State, len(tr.Events), StateOpen)
	}

	// Sealing flips the state everywhere, and the sealed metadata's
	// originating host surfaces in the listing for fleet host filters. The
	// metadata also names a process that logged no event: the listing row,
	// the summary and AddDir on the same directory all count it.
	meta.Host = "gpu-node-3"
	meta.Procs[5] = trace.ProcInfo{Name: "idle-worker", Parent: 0}
	metaBody, _ := json.Marshal(meta)
	if rec := doReq(t, h, "POST", "/v1/traces/live1/seal", string(metaBody)); rec.Code != http.StatusOK {
		t.Fatalf("seal: %d %s", rec.Code, rec.Body)
	}
	rec = doReq(t, h, "GET", "/v1/traces", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	got := listing.Traces[0]
	if got.State != StateSealed || got.Workload != "quickstart" || got.Host != "gpu-node-3" {
		t.Fatalf("sealed listing %+v", got)
	}
	rec = doReq(t, h, "GET", "/v1/traces/live1/summary", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	twin, err := s.AddDir("twin", filepath.Join(store, "live1"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs != 2 || got.Procs != len(sum.Processes) || sum.Procs != got.Procs || twin.Procs != got.Procs {
		t.Fatalf("procs: listing %d, summary %d over %d processes, AddDir twin %d; want 2 everywhere",
			got.Procs, sum.Procs, len(sum.Processes), twin.Procs)
	}
}
