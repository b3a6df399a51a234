package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	rlscope "repro"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// quickstartFrames encodes the quickstart trace as n chunk frames plus its
// metadata — what a streaming profiler would ship.
func quickstartFrames(tb testing.TB, steps, n int) (chunks [][]byte, meta trace.Meta) {
	tb.Helper()
	tr := quickstartTrace(tb, steps)
	per := (len(tr.Events) + n - 1) / n
	for lo := 0; lo < len(tr.Events); lo += per {
		hi := lo + per
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		chunk, _, err := trace.EncodeEvents(tr.Events[lo:hi])
		if err != nil {
			tb.Fatal(err)
		}
		chunks = append(chunks, chunk)
	}
	return chunks, tr.Meta
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

// TestIngestIncrementalLocality pins the acceptance criterion on the serve
// layer: after an initial analyze, appending one chunk and re-analyzing
// re-sweeps only the shards that chunk touches (watched via the incremental
// counters), runs zero batch engines, and each append batches into exactly
// one epoch per analyze regardless of how many chunks landed in between.
func TestIngestIncrementalLocality(t *testing.T) {
	s, _ := liveServer(t, Config{})
	h := s.Handler()

	// A multi-shard trace: proc 0's three phases cut its timeline into
	// three populated windows, proc 1 is phaseless (one window). The final
	// chunk lands wholly inside one of proc 0's windows.
	cpu := func(p trace.ProcID, lo, hi int64) trace.Event {
		return trace.Event{Proc: p, Kind: trace.KindCPU, Cat: trace.CatPython,
			Start: vclock.Time(lo), End: vclock.Time(hi)}
	}
	phase := func(name string, lo, hi int64) trace.Event {
		return trace.Event{Proc: 0, Kind: trace.KindPhase, Name: name,
			Start: vclock.Time(lo), End: vclock.Time(hi)}
	}
	groups := [][]trace.Event{
		{phase("warmup", 0, 1000), phase("training", 1000, 2000), phase("evaluation", 2000, 3000),
			cpu(0, 100, 300), cpu(1, 50, 2500)},
		{cpu(0, 1100, 1300), cpu(0, 2100, 2300), cpu(1, 2600, 2700)},
		{cpu(0, 1500, 1600)}, // the locality probe: one window of proc 0
	}
	var chunks [][]byte
	for _, g := range groups {
		chunk, _, err := trace.EncodeEvents(g)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, chunk)
	}

	post := func(seq int) {
		t.Helper()
		rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/loc/chunks?seq=%d", seq), string(chunks[seq]))
		if rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d %s", seq, rec.Code, rec.Body)
		}
	}
	analyze := func() {
		t.Helper()
		rec := doReq(t, h, "POST", "/v1/traces/loc/analyze", `{}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze: %d %s", rec.Code, rec.Body)
		}
	}

	for seq := 0; seq < len(chunks)-1; seq++ {
		post(seq)
	}
	analyze()
	s0, ok := s.IncrementalStats("loc")
	if !ok {
		t.Fatal("no incremental stats for live trace")
	}
	if s0.Epochs != 1 || s0.Chunks != len(chunks)-1 {
		t.Fatalf("first analyze: %+v, want 1 epoch over %d chunks", s0, len(chunks)-1)
	}

	// One more chunk: the re-analysis sweeps only the shards it touches,
	// strictly fewer than the full shard count of the first pass.
	post(len(chunks) - 1)
	analyze()
	s1, _ := s.IncrementalStats("loc")
	if s1.Epochs != 2 {
		t.Fatalf("second analyze: %d epochs, want 2", s1.Epochs)
	}
	if s0.Shards < 4 {
		t.Fatalf("first pass swept %d shards, want at least 4 (3 phase windows + 1 phaseless proc)", s0.Shards)
	}
	if delta := s1.Shards - s0.Shards; delta != 1 {
		t.Fatalf("one-chunk append re-swept %d shards (first pass swept %d), want exactly 1", delta, s0.Shards)
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("live path started %d batch engine runs", runs)
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

	// Sequence protocol on a real live trace.
	if rec := doReq(t, h, "POST", "/v1/traces/run/chunks?seq=0", string(chunks[0])); rec.Code != http.StatusOK {
		t.Fatalf("append 0: %d %s", rec.Code, rec.Body)
	}
	// Gap.
	rec := doReq(t, h, "POST", "/v1/traces/run/chunks?seq=5", string(chunks[1]))
	if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeOutOfOrderSeq {
		t.Fatalf("gap append: %d %s", rec.Code, rec.Body)
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
	rec = doReq(t, h, "POST", "/v1/traces/run/seal", "")
	if rec.Code != http.StatusConflict || errCode(t, rec) != ErrCodeTraceSealed {
		t.Fatalf("double seal: %d %s", rec.Code, rec.Body)
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
	s, _ := liveServer(t, Config{})
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
	// originating host surfaces in the listing for fleet host filters.
	meta.Host = "gpu-node-3"
	metaBody, _ := json.Marshal(meta)
	if rec := doReq(t, h, "POST", "/v1/traces/live1/seal", string(metaBody)); rec.Code != http.StatusOK {
		t.Fatalf("seal: %d %s", rec.Code, rec.Body)
	}
	rec = doReq(t, h, "GET", "/v1/traces", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if got := listing.Traces[0]; got.State != StateSealed || got.Workload != "quickstart" || got.Host != "gpu-node-3" {
		t.Fatalf("sealed listing %+v", got)
	}
}
