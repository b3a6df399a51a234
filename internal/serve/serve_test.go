package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	rlscope "repro"
	"repro/internal/cuda"
	"repro/internal/gpu"
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
func quickstartDir(tb testing.TB, steps int) string { return labeledDir(tb, steps, nil) }

func doReq(tb testing.TB, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	tb.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHealthz: the health document counts the registry and the Engine runs
// started, and reports the worker budget and the defaulted cache budget.
func TestHealthz(t *testing.T) {
	newScenario(t, Config{MaxWorkers: 4}).addDir("qs", quickstartDir(t, 20)).healthz()
}

func TestTracesGolden(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newScenario(t, Config{}).addDir("qs", dir).s
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
	s := newScenario(t, Config{}).addDir("qs", dir).s
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

// TestAnalyzeCacheHitDoesZeroEngineWork: a first analyze is a miss and one
// Engine run, its repeat a hit with the same bytes and none, and options
// spelled differently are one key: a duplicated procs filter is the plain
// one.
func TestAnalyzeCacheHitDoesZeroEngineWork(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 1}).addDir("qs", quickstartDir(t, 20))
	for _, body := range []string{`{"workers":1}`, `{"workers":1}`, `{"workers":1,"procs":[0,0]}`, `{"workers":1,"procs":[0]}`} {
		sc.analyze("qs", body)
	}
	sc.answered("miss", "hit", "miss", "hit")
}

// TestAnalyzeMatchesCLI pins the satellite guarantee: the service's
// POST /analyze body is byte-identical to what `rlscope-analyze -json`
// prints for the same trace and options (both build report.NewAnalysis
// from an Engine run and encode with Analysis.Encode; Workers:1 makes the
// stats block deterministic too).
func TestAnalyzeMatchesCLI(t *testing.T) {
	newScenario(t, Config{MaxWorkers: 1}).addDir("qs", quickstartDir(t, 20)).analyze("qs", `{"workers":1}`)
}

// TestAnalyzeSingleflight proves N identical concurrent requests cost one
// Engine run: a pre-run hook holds the flight open until every request has
// joined it, then the one run's document answers them all.
func TestAnalyzeSingleflight(t *testing.T) {
	const n = 8
	dir := quickstartDir(t, 20)
	s := newScenario(t, Config{}).addDir("qs", dir).s
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
	s := newScenario(t, Config{}).addDir("qs", dir).s

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
	big := newScenario(t, Config{}).addDir("qs", dir).s
	bodyA := doReq(t, big.Handler(), "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	bodyB := doReq(t, big.Handler(), "POST", "/v1/traces/qs/analyze", `{"workers":1,"max_resident_bytes":4096}`)
	if bodyA.Code != http.StatusOK || bodyB.Code != http.StatusOK {
		t.Fatalf("setup analyses failed: %d / %d", bodyA.Code, bodyB.Code)
	}
	budget := int64(bodyA.Body.Len())
	if n := int64(bodyB.Body.Len()); n > budget {
		budget = n
	}

	s := newScenario(t, Config{CacheBytes: budget + 1}).addDir("qs", dir).s
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

// TestQueryReDigestsRewrittenDir: a result-set run keeps the rule an analyze
// miss keeps. A query over a rewritten directory swaps the fresh snapshot in
// and stores the set and the default document under the new digest, none
// under the old; the query then selects again over the new content and
// answers, and stores, its document, counting both runs. The next query is
// a hit on it.
func TestQueryReDigestsRewrittenDir(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newScenario(t, Config{MaxWorkers: 1}).addDir("qs", dir).s
	h := s.Handler()
	old := s.reg.Load().byID["qs"].info.Digest
	rewriteDir(t, dir, 40, nil)
	const query = `{"group_by":["workload"]}`
	offline := offlineQueryDoc(t, parseQuery(t, query), map[string]string{"qs": dir})
	rec := queryOK(t, h, query)
	if c, runs := rec.Header().Get("X-RLScope-Cache"), rec.Header().Get("X-RLScope-Engine-Runs"); c != "miss" || runs != "2" {
		t.Fatalf("query over the rewritten directory: cache %q, %s Engine runs; want a miss that ran twice", c, runs)
	}
	if !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Errorf("document over the rewritten directory diverges from offline:\nserver:\n%s\noffline:\n%s", rec.Body, offline)
	}
	fresh := s.reg.Load().byID["qs"].info.Digest
	if fresh == old {
		t.Fatal("registration digest not refreshed by the query's run")
	}
	def := s.canonicalize(AnalyzeRequest{})
	for key, want := range map[string]bool{
		resultSetKey(old): false, cacheKey(old, def): false,
		resultSetKey(fresh): true, cacheKey(fresh, def): true,
	} {
		if _, ok := s.store.get(key); ok != want {
			t.Errorf("%.40s… stored: %v, want %v", key, ok, want)
		}
	}
	for key, item := range s.store.lru.items {
		if strings.HasPrefix(key, queryKey("")) && !bytes.Equal(item.Value.(*cacheEntry).body.b, offline) {
			t.Errorf("a query document selected over the old content was stored")
		}
	}
	rec = queryOK(t, h, query)
	if c, runs := rec.Header().Get("X-RLScope-Cache"), rec.Header().Get("X-RLScope-Engine-Runs"); c != "hit" || runs != "0" {
		t.Fatalf("query after the swap: cache %q, %s Engine runs; want a hit that runs nothing", c, runs)
	}
	if !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Errorf("document after the swap diverges from offline:\nserver:\n%s\noffline:\n%s", rec.Body, offline)
	}
}

// TestQueryReDigestsEveryRewrittenDir: a query answers once more for each
// trace whose run finds its directory rewritten — two directories, one of
// them registered under two ids — and then answers the offline document over
// the rewritten content, its Engine-runs header counting every run.
func TestQueryReDigestsEveryRewrittenDir(t *testing.T) {
	a, b := quickstartDir(t, 20), quickstartDir(t, 24)
	s := newScenario(t, Config{MaxWorkers: 1}).addDir("a", a).addDir("a-twin", a).addDir("b", b).s
	rewriteDir(t, a, 40, nil)
	rewriteDir(t, b, 44, nil)
	const query = `{"group_by":["workload"]}`
	rec := queryOK(t, s.Handler(), query)
	// a fails and answers again, as do a-twin (a's fresh set is no set of
	// a-twin's old digest) and b: three failed runs and two that land.
	if got := rec.Header().Get("X-RLScope-Engine-Runs"); got != "5" || s.EngineRuns() != 5 {
		t.Fatalf("the query says it started %s Engine runs, the server counted %d; want 5", got, s.EngineRuns())
	}
	if offline := offlineQueryDoc(t, parseQuery(t, query), map[string]string{"a": a, "a-twin": a, "b": b}); !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Errorf("document over the rewritten directories diverges from offline:\nserver:\n%s\noffline:\n%s", rec.Body, offline)
	}
}

// TestAnalyzeTwinsShareARewrite: two ids registered over one directory share
// an analyze flight, and its run finds the directory rewritten. Each request
// answers again over its own fresh entry, so both answer the rewritten
// content's document and name its digest.
func TestAnalyzeTwinsShareARewrite(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newScenario(t, Config{MaxWorkers: 1}).addDir("a", dir).addDir("a-twin", dir).s
	key := cacheKey(s.reg.Load().byID["a"].info.Digest, s.canonicalize(AnalyzeRequest{}))
	rewriteDir(t, dir, 40, nil)
	release := make(chan struct{})
	s.preRun = func(context.Context, string) { <-release }
	h := s.Handler()
	recs := make([]*httptest.ResponseRecorder, 2)
	var wg sync.WaitGroup
	for i, id := range []string{"a", "a-twin"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = doReq(t, h, "POST", "/v1/traces/"+id+"/analyze", `{}`)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.waiting(key) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 requests joined the flight", s.flights.waiting(key))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	digest, err := trace.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := offlineDoc(t, rlscope.FromDir(dir), docOpts{full: true})
	for i, rec := range recs {
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) || rec.Header().Get("X-Rlscope-Digest") != digest {
			t.Errorf("request %d: %d, digest %.12s…, want 200 with the rewritten content's document and digest:\n%.300s",
				i, rec.Code, rec.Header().Get("X-Rlscope-Digest"), rec.Body)
		}
	}
}

// TestAnalyzeReDigestsRewrittenDir pins the content-addressing guarantee
// on the miss path: when a registered directory's bytes change, the next
// analysis that actually runs re-snapshots the registration and caches
// under the new digest — new bytes are never filed under the old digest.
func TestAnalyzeReDigestsRewrittenDir(t *testing.T) {
	dir := quickstartDir(t, 20)
	s := newScenario(t, Config{}).addDir("qs", dir).s
	h := s.Handler()

	rec1 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if rec1.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", rec1.Code, rec1.Body)
	}
	oldDigest := s.reg.Load().byID["qs"].info.Digest

	// Rewrite the directory in place with a different (larger) run.
	events := len(quickstartTrace(t, 40).Events)
	rewriteDir(t, dir, 40, nil)

	// A different option combination misses, re-digests, and refreshes
	// the registration snapshot.
	rec2 := doReq(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1,"max_resident_bytes":8192}`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-rewrite analyze: %d %s", rec2.Code, rec2.Body)
	}
	fresh := s.reg.Load().byID["qs"]
	if fresh.info.Digest == oldDigest {
		t.Fatal("registration digest not refreshed after rewrite")
	}
	if fresh.info.Events != events {
		t.Fatalf("refreshed summary has %d events, want %d", fresh.info.Events, events)
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

// TestAnalyzeCorrection: a corrected analyze is the offline corrected
// document, and it and the uncorrected one are two cache entries with two
// documents.
func TestAnalyzeCorrection(t *testing.T) {
	dir := quickstartDir(t, 20)
	sc := newScenario(t, Config{MaxWorkers: 1, Calibration: scenarioCal}).addDir("qs", dir)
	for _, body := range []string{`{"workers":1,"correction":true}`, `{"workers":1}`, `{"workers":1,"correction":true}`} {
		sc.analyze("qs", body)
	}
	sc.answered("miss", "miss", "hit")
	if bytes.Equal(offlineDoc(t, rlscope.FromDir(dir), docOpts{full: true, cal: scenarioCal}), offlineDoc(t, rlscope.FromDir(dir), docOpts{full: true})) {
		t.Fatal("corrected and uncorrected documents are identical")
	}
}

// TestAnalyzeRequestErrors: an unknown id is 404 unknown_trace to analyze
// and summary, a body no server takes and correction without a
// calibration are 400, and none of them costs an Engine run; an empty body
// is all defaults.
func TestAnalyzeRequestErrors(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 1}).addDir("qs", quickstartDir(t, 5))
	sc.analyze("nope", "")
	sc.summary("nope")
	for _, body := range append(slices.Clone(badAnalyzeBodies), `{"correction":true}`, "") {
		sc.analyze("qs", body)
	}
	bad := ErrCodeBadRequest
	sc.answered(ErrCodeUnknownTrace, ErrCodeUnknownTrace, bad, bad, bad, ErrCodeNoCalibration, "miss")
}

// TestAddDirErrors: AddDir refuses a directory with no trace files, an id
// already registered, and ids that break the rule — "." and ".." would name
// the store and its parent, net/http's path cleaning redirects both and
// cuts at "?" before a route sees them, and an id names a store directory,
// so it is at most 255 bytes, which it may be.
func TestAddDirErrors(t *testing.T) {
	dir := quickstartDir(t, 5)
	sc := newScenario(t, Config{}).addDir("x", t.TempDir()).addDir("qs", dir).addDir("qs", dir)
	for _, id := range []string{"bad id", ".", "..", "a?b", strings.Repeat("a", 256), strings.Repeat("a", 255)} {
		sc.addDir(id, dir)
	}
	if len(sc.order) != 2 {
		t.Fatalf("registered %v, want qs and the 255-byte id", sc.order)
	}
}

// jsonBodyCase is a body a route that takes JSON refuses.
type jsonBodyCase struct {
	path, body string
	want       int
}

// jsonBodyCases are the refused bodies of TestJSONBodyErrors, on a server
// where qs is a registered trace and open an open one.
func jsonBodyCases() []jsonBodyCase {
	long := strings.Repeat("a", 2<<20)
	return []jsonBodyCase{
		{"/v1/traces/qs/analyze", `{"workers":1}garbage`, http.StatusBadRequest},
		{"/v1/traces/qs/analyze", `{"workers":1} {"correction":true}`, http.StatusBadRequest},
		{"/v1/traces", `{"id":"zz"} trailing`, http.StatusBadRequest},
		{"/v1/traces/open/seal", `{"workload":"w"} {}`, http.StatusBadRequest},
		{"/v1/query", `{"group_by":["label.algo"]}]]]`, http.StatusBadRequest},
		{"/v1/traces/qs/analyze", `{"procs":[` + strings.Repeat("0,", 600_000) + `0]}`, http.StatusRequestEntityTooLarge},
		{"/v1/traces", `{"id":"` + long + `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/traces/open/seal", `{"workload":"` + long + `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/query", `{"group_by":["` + long + `"]}`, http.StatusRequestEntityTooLarge},
		// Over the limit is 413 whatever the body holds: it is read whole
		// before a byte of it is decoded.
		{"/v1/traces/qs/analyze", `]` + long, http.StatusRequestEntityTooLarge},
		{"/v1/query", `{"group_by":` + long, http.StatusRequestEntityTooLarge},
	}
}

// TestJSONBodyErrors: the four routes that take a JSON body read one value
// of at most 1 MiB. Bytes after the value are 400 bad_request, not a request
// whose second half is dropped, and a body over the limit is 413
// bad_request, as an oversized chunk is. A refused request changes nothing.
func TestJSONBodyErrors(t *testing.T) {
	s := newScenario(t, Config{}).addDir("qs", quickstartDir(t, 5)).s
	h := s.Handler()
	chunks, _ := quickstartFrames(t, 5, 1)
	mustOK(t, h, "POST", "/v1/traces/open/chunks?seq=0", string(chunks[0]))
	for _, tc := range jsonBodyCases() {
		rec := doReq(t, h, "POST", tc.path, tc.body)
		if rec.Code != tc.want || errCode(t, rec) != ErrCodeBadRequest {
			t.Errorf("POST %s %.40q: %d %.120s, want %d %s", tc.path, tc.body, rec.Code, rec.Body, tc.want, ErrCodeBadRequest)
		}
	}
	if s.reg.Load().byID["zz"] != nil {
		t.Error("a refused create opened its trace")
	}
	if s.reg.Load().byID["open"].live == nil {
		t.Error("a refused seal sealed the trace")
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Errorf("refused analyzes started %d engine runs", runs)
	}
}
