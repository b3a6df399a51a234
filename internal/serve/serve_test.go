package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// quickstartTrace runs the examples/quickstart workload under the profiler
// and returns the trace — one process, three operations, a "training"
// phase.
func quickstartTrace(tb testing.TB, steps int) *trace.Trace {
	tb.Helper()
	p := rlscope.New(rlscope.Options{
		Workload: "quickstart",
		Flags:    rlscope.FullInstrumentation(),
		Seed:     1,
	})
	dev := gpu.NewDevice(-1)
	sess := p.NewProcess("trainer", -1, 0)
	ctx := cuda.NewContext(sess, dev, cuda.DefaultCosts())
	sess.SetPhase("training")
	for step := 0; step < steps; step++ {
		sess.WithOperation("inference", func() {
			sess.CallBackend("policy.forward", func() {
				for k := 0; k < 3; k++ {
					ctx.LaunchKernel("dense", 3*vclock.Microsecond)
				}
				ctx.StreamSynchronize()
			})
		})
		sess.WithOperation("simulation", func() {
			sess.CallSimulator("env.step", func() {
				sess.Clock().Advance(120 * vclock.Microsecond)
			})
		})
		if step%4 == 3 {
			sess.WithOperation("backpropagation", func() {
				sess.Python(vclock.Exact(120 * vclock.Microsecond))
				sess.CallBackend("train_step", func() {
					ctx.MemcpyAsync(cuda.HostToDevice, 64*1024)
					for k := 0; k < 9; k++ {
						ctx.LaunchKernel("dense_grad", 5*vclock.Microsecond)
					}
					ctx.StreamSynchronize()
				})
			})
		}
	}
	sess.Close()
	return p.MustTrace()
}

// quickstartDir writes the quickstart trace as a multi-chunk directory.
func quickstartDir(tb testing.TB, steps int) string {
	tb.Helper()
	tr := quickstartTrace(tb, steps)
	dir := tb.TempDir()
	w, err := trace.NewWriter(dir, 4<<10)
	if err != nil {
		tb.Fatal(err)
	}
	w.Append(tr.Events...)
	if err := w.Close(tr.Meta); err != nil {
		tb.Fatal(err)
	}
	return dir
}

func newTestServer(tb testing.TB, cfg Config, dir string) *Server {
	tb.Helper()
	s := NewServer(cfg)
	tb.Cleanup(s.Close)
	if _, err := s.AddDir("qs", dir); err != nil {
		tb.Fatal(err)
	}
	return s
}

func doReq(tb testing.TB, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	tb.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{MaxWorkers: 4}, quickstartDir(t, 20))
	rec := doReq(t, s.Handler(), "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Traces != 1 || h.Workers.Total != 4 || h.Workers.Available != 4 {
		t.Fatalf("unexpected health: %+v", h)
	}
	if h.Cache.MaxBytes != DefaultCacheBytes {
		t.Fatalf("cache budget not defaulted: %+v", h.Cache)
	}
}

func TestTracesGolden(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newTestServer(t, Config{}, dir)
	digest, err := trace.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := doReq(t, s.Handler(), "GET", "/v1/traces", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("traces: %d %s", rec.Code, rec.Body)
	}
	want := fmt.Sprintf(`{
  "traces": [
    {
      "id": "qs",
      "digest": "%s",
      "workload": "quickstart",
      "chunks": %d,
      "events": %d,
      "procs": 1,
      "state": "sealed"
    }
  ]
}
`, digest, r.NumChunks(), len(tr.Events))
	if got := rec.Body.String(); got != want {
		t.Fatalf("traces listing mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSummary(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newTestServer(t, Config{}, dir)
	rec := doReq(t, s.Handler(), "GET", "/v1/traces/qs/summary", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("summary: %d %s", rec.Code, rec.Body)
	}
	var sum TraceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != len(tr.Events) {
		t.Fatalf("summary events %d, want %d", sum.Events, len(tr.Events))
	}
	if len(sum.Processes) != 1 || sum.Processes[0].Name != "trainer" || sum.Processes[0].Parent != -1 {
		t.Fatalf("unexpected processes: %+v", sum.Processes)
	}
	ps := sum.Processes[0]
	start, end := tr.Span()
	if ps.Events != len(tr.Events) || ps.MinStart != int64(start) || ps.MaxEnd != int64(end) {
		t.Fatalf("proc summary %+v does not match trace span [%d, %d] / %d events",
			ps, start, end, len(tr.Events))
	}
	if len(sum.Tree) != 1 || sum.Tree[0].Name != "trainer" || len(sum.Tree[0].Children) != 0 {
		t.Fatalf("unexpected tree: %+v", sum.Tree)
	}
	if len(sum.Phases) != 1 || sum.Phases[0] != "training" {
		t.Fatalf("unexpected phases: %v", sum.Phases)
	}
	if !sum.Config.CUPTI {
		t.Fatalf("config not threaded through: %+v", sum.Config)
	}
	// The summary is served from sidecar indexes captured at registration:
	// a second request returns identical bytes.
	rec2 := doReq(t, s.Handler(), "GET", "/v1/traces/qs/summary", "")
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("summary not stable across requests")
	}
}

func TestAnalyzeCacheHitDoesZeroEngineWork(t *testing.T) {
	s := newTestServer(t, Config{}, quickstartDir(t, 20))
	h := s.Handler()

	rec1 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if rec1.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", rec1.Code, rec1.Body)
	}
	if got := rec1.Header().Get("X-RLScope-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Fatalf("engine runs after first request: %d, want 1", runs)
	}

	rec2 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("analyze (warm): %d %s", rec2.Code, rec2.Body)
	}
	if got := rec2.Header().Get("X-RLScope-Cache"); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Fatalf("cache hit performed engine work: %d runs", runs)
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("cache hit body differs from the original")
	}

	// Equivalent-but-differently-spelled options canonicalize to the same
	// key: a duplicated, unsorted procs filter is still the same request.
	rec3 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1,"procs":[0,0]}`)
	rec4 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1,"procs":[0]}`)
	if rec3.Header().Get("X-RLScope-Cache") != "miss" || rec4.Header().Get("X-RLScope-Cache") != "hit" {
		t.Fatalf("procs canonicalization broken: %q then %q",
			rec3.Header().Get("X-RLScope-Cache"), rec4.Header().Get("X-RLScope-Cache"))
	}
}

// TestAnalyzeMatchesCLI pins the satellite guarantee: the service's
// POST /analyze body is byte-identical to what `rlscope-analyze -json`
// prints for the same trace and options (both build report.NewAnalysis
// from an Engine run and encode with Analysis.Encode; Workers:1 makes the
// stats block deterministic too).
func TestAnalyzeMatchesCLI(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newTestServer(t, Config{}, dir)

	rec := doReq(t, s.Handler(), "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", rec.Code, rec.Body)
	}

	eng := rlscope.NewEngine(rlscope.WithWorkers(1))
	rep, err := eng.Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected).Encode(&cli); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), cli.Bytes()) {
		t.Fatalf("service and CLI documents differ:\nservice:\n%s\ncli:\n%s", rec.Body, cli.String())
	}
}

// TestAnalyzeSingleflight proves N identical concurrent requests cost one
// Engine run: a pre-run hook holds the flight open until every request has
// joined it, then the one run's document answers them all.
func TestAnalyzeSingleflight(t *testing.T) {
	const n = 8
	dir := quickstartDir(t, 20)
	s := newTestServer(t, Config{}, dir)
	digest, err := trace.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(digest, s.canonicalize(AnalyzeRequest{Workers: 1}))

	release := make(chan struct{})
	s.preRun = func(ctx context.Context, k string) {
		if k != key {
			t.Errorf("flight key %q, want %q", k, key)
		}
		<-release
	}

	h := s.Handler()
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
		}(i)
	}

	// Wait until all n requests are blocked on the one flight, then let
	// the single Engine run proceed.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.waiting(key) != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests joined the flight", s.flights.waiting(key), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if runs := s.EngineRuns(); runs != 1 {
		t.Fatalf("%d concurrent identical requests cost %d engine runs, want 1", n, runs)
	}
	var miss, dedup int
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d body differs", i)
		}
		switch rec.Header().Get("X-RLScope-Cache") {
		case "miss":
			miss++
		case "dedup":
			dedup++
		default:
			t.Fatalf("request %d: unexpected cache header %q", i, rec.Header().Get("X-RLScope-Cache"))
		}
	}
	if miss != 1 || dedup != n-1 {
		t.Fatalf("got %d miss / %d dedup, want 1 / %d", miss, dedup, n-1)
	}
}

// TestAnalyzeClientDisconnectCancels proves a request whose every client
// has gone away cancels the underlying run (the PR 4 cancellation path)
// instead of burning the worker budget for nobody.
func TestAnalyzeClientDisconnectCancels(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newTestServer(t, Config{}, dir)

	entered := make(chan struct{})
	aborted := make(chan struct{})
	s.preRun = func(ctx context.Context, key string) {
		close(entered)
		<-ctx.Done() // hold the flight until its run context dies
		close(aborted)
	}

	cctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/traces/qs/analyze", strings.NewReader(`{"workers":1}`)).WithContext(cctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()

	<-entered
	cancel() // the only client disconnects
	select {
	case <-aborted:
	case <-time.After(10 * time.Second):
		t.Fatal("flight run context was not cancelled after the last client left")
	}
	<-done
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("cancelled request still started %d engine runs", runs)
	}

	// The server is healthy afterwards: the same request recomputes.
	s.preRun = nil
	rec2 := doReq(t, s.Handler(), "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if rec2.Code != http.StatusOK || s.EngineRuns() != 1 {
		t.Fatalf("post-cancel request: code %d, %d engine runs", rec2.Code, s.EngineRuns())
	}
}

// TestCacheEviction exercises the LRU under a budget that fits exactly one
// document: a second distinct analysis evicts the first, which then
// recomputes on re-request.
func TestCacheEviction(t *testing.T) {
	dir := quickstartDir(t, 20)

	// Measure the two documents' sizes with an unbounded cache.
	big := newTestServer(t, Config{}, dir)
	bodyA := doReq(t, big.Handler(), "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	bodyB := doReq(t, big.Handler(), "POST", "/v1/traces/qs/analyze", `{"workers":1,"max_resident_bytes":4096}`)
	if bodyA.Code != http.StatusOK || bodyB.Code != http.StatusOK {
		t.Fatalf("setup analyses failed: %d / %d", bodyA.Code, bodyB.Code)
	}
	budget := int64(bodyA.Body.Len())
	if n := int64(bodyB.Body.Len()); n > budget {
		budget = n
	}

	s := newTestServer(t, Config{CacheBytes: budget + 1}, dir)
	h := s.Handler()
	doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1,"max_resident_bytes":4096}`)
	st := s.store.lru.stats()
	if st.Evictions < 1 {
		t.Fatalf("no eviction under a one-document budget: %+v", st)
	}
	if st.Bytes > s.store.lru.max {
		t.Fatalf("cache over budget: %+v", st)
	}
	rec := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if got := rec.Header().Get("X-RLScope-Cache"); got != "miss" {
		t.Fatalf("evicted entry served as %q, want miss", got)
	}
	if runs := s.EngineRuns(); runs != 3 {
		t.Fatalf("engine runs %d, want 3 (two fills + one recompute)", runs)
	}
}

// TestAnalyzeReDigestsRewrittenDir pins the content-addressing guarantee
// on the miss path: when a registered directory's bytes change, the next
// analysis that actually runs re-snapshots the registration and caches
// under the new digest — new bytes are never filed under the old digest.
func TestAnalyzeReDigestsRewrittenDir(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newTestServer(t, Config{}, dir)
	h := s.Handler()

	rec1 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if rec1.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", rec1.Code, rec1.Body)
	}
	oldDigest := s.lookup("qs").info.Digest

	// Rewrite the directory in place with a different (larger) run.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	tr := quickstartTrace(t, 40)
	w, err := trace.NewWriter(dir, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(tr.Events...)
	if err := w.Close(tr.Meta); err != nil {
		t.Fatal(err)
	}

	// A different option combination misses, re-digests, and refreshes
	// the registration snapshot.
	rec2 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1,"max_resident_bytes":8192}`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-rewrite analyze: %d %s", rec2.Code, rec2.Body)
	}
	fresh := s.lookup("qs")
	if fresh.info.Digest == oldDigest {
		t.Fatal("registration digest not refreshed after rewrite")
	}
	if fresh.info.Events != len(tr.Events) {
		t.Fatalf("refreshed summary has %d events, want %d", fresh.info.Events, len(tr.Events))
	}
	// The report landed under the new digest: the identical request hits.
	rec3 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1,"max_resident_bytes":8192}`)
	if got := rec3.Header().Get("X-RLScope-Cache"); got != "hit" {
		t.Fatalf("re-request after refresh: %q, want hit", got)
	}
	// The original options now key on the new digest too: a fresh run
	// over the new bytes, not the stale pre-rewrite document.
	rec4 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if got := rec4.Header().Get("X-RLScope-Cache"); got != "miss" {
		t.Fatalf("original options after rewrite: %q, want miss", got)
	}
	if bytes.Equal(rec4.Body.Bytes(), rec1.Body.Bytes()) {
		t.Fatal("post-rewrite analysis returned the pre-rewrite document")
	}
}

func TestAnalyzeCorrection(t *testing.T) {
	dir := quickstartDir(t, 20)
	cal := &calib.Calibration{
		Annotation:    50 * vclock.Nanosecond,
		Interception:  30 * vclock.Nanosecond,
		CUDAIntercept: 20 * vclock.Nanosecond,
	}
	s := newTestServer(t, Config{Calibration: cal}, dir)
	h := s.Handler()

	rec := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1,"correction":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("corrected analyze: %d %s", rec.Code, rec.Body)
	}
	var doc report.Analysis
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Corrected {
		t.Fatal("corrected document not marked corrected")
	}
	// Corrected and uncorrected analyses are distinct cache entries.
	plain := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if plain.Header().Get("X-RLScope-Cache") != "miss" {
		t.Fatal("uncorrected request hit the corrected cache entry")
	}
	if bytes.Equal(rec.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatal("corrected and uncorrected documents are identical")
	}
}

func TestAnalyzeRequestErrors(t *testing.T) {
	s := newTestServer(t, Config{}, quickstartDir(t, 5))
	h := s.Handler()
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/traces/nope/analyze", "", http.StatusNotFound},
		{"GET", "/v1/traces/nope/summary", "", http.StatusNotFound},
		{"POST", "/v1/traces/qs/analyze", `{"workers":`, http.StatusBadRequest},
		{"POST", "/v1/traces/qs/analyze", `{"bogus_option":1}`, http.StatusBadRequest},
		{"POST", "/v1/traces/qs/analyze", `{"correction":true}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := doReq(t, h, tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s %s %q: got %d, want %d (%s)", tc.method, tc.path, tc.body, rec.Code, tc.want, rec.Body)
		}
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("rejected requests started %d engine runs", runs)
	}
	// An empty body is legal: all defaults.
	rec := doReq(t, h, "POST", "/v1/traces/qs/analyze", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("empty-body analyze: %d %s", rec.Code, rec.Body)
	}
}

func TestAddDirErrors(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.AddDir("x", t.TempDir()); err == nil {
		t.Fatal("registering an empty directory succeeded")
	}
	dir := quickstartDir(t, 5)
	if _, err := s.AddDir("qs", dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddDir("qs", dir); err == nil {
		t.Fatal("duplicate id registration succeeded")
	}
	// The live-ingest id rule: "." and ".." would name the store itself and
	// its parent, and net/http's path cleaning redirects both (and cuts at
	// "?") before a route sees them.
	for _, id := range []string{"bad id", ".", "..", "a?b"} {
		if _, err := s.AddDir(id, dir); err == nil {
			t.Fatalf("invalid id %q registered", id)
		}
	}
}
