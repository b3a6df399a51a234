package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/report"
	"repro/internal/trace"
)

// queryOK posts a fleet query and returns the recorder, failing the test
// on anything but 200.
func queryOK(tb testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	tb.Helper()
	return mustOK(tb, h, "POST", "/v1/query", body)
}

func parseQuery(tb testing.TB, body string) fleet.Query {
	tb.Helper()
	var q fleet.Query
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		tb.Fatal(err)
	}
	return q
}

// TestQueryDocInvalidation is the cache's correctness property, over random
// registration orders of a mixed fleet (registered directories and live
// traces sealed over HTTP): after every registration each served document
// equals the offline oracle over exactly the traces registered so far, is a
// miss precisely when the newcomer matches the query's filter, and repeats
// as a byte-identical hit at no Engine run. There is no purge to get wrong —
// a stale answer could only come from two fleets sharing a key.
func TestQueryDocInvalidation(t *testing.T) {
	pool := []struct {
		id     string
		labels map[string]string
		steps  int // 0 = streamed live and sealed
	}{
		{"run-a", map[string]string{"algo": "ppo", "framework": "tf"}, 8},
		{"run-b", map[string]string{"algo": "ppo", "framework": "torch"}, 12},
		{"run-c", map[string]string{"algo": "dqn", "framework": "tf"}, 16},
		{"live-d", map[string]string{"algo": "dqn", "framework": "torch"}, 0},
		{"live-e", map[string]string{"algo": "ppo", "framework": "tf"}, 0},
	}
	tr := quickstartTrace(t, 10)
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc := newScenario(t, Config{MaxWorkers: 1})
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(pool)) {
				if r := pool[i]; r.steps > 0 {
					sc.addDir(r.id, labeledDir(t, r.steps, r.labels))
				} else {
					sc.stream(r.id, tr, 3, r.labels)
				}
				for _, body := range []string{
					`{"group_by":["label.algo"],"metrics":["total_ns","gpu_frac","transitions"]}`,
					`{"filter":{"label.algo":"ppo"},"group_by":["label.framework"]}`,
				} {
					sc.query(body)
					sc.query(body)
				}
			}
		})
	}
}

// TestQueryDocCacheMembership spells out which registrations move a query's
// key: a trace the filter rejects does not; a matching trace does, whether
// its content is new, the same content under a second id, or the same
// events carrying a different group_by label value.
func TestQueryDocCacheMembership(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 1})
	dirs := sc.addFleet()
	body := `{"filter":{"label.algo":"ppo"},"group_by":["label.framework"]}`
	sc.query(body)
	sc.query(body)
	for _, add := range []struct{ id, dir string }{
		{"run-d", labeledDir(t, 30, map[string]string{"algo": "dqn", "framework": "torch"})}, // the filter rejects it
		{"run-e", labeledDir(t, 30, map[string]string{"algo": "ppo", "framework": "tf"})},    // new matching content
		{"run-a2", dirs["run-a"]}, // run-a's content under a second id
		{"run-f", labeledDir(t, 12, map[string]string{"algo": "ppo", "framework": "jax"})}, // run-a's events, another group
	} {
		sc.addDir(add.id, add.dir)
		sc.query(body)
		sc.query(body)
	}
	sc.answered("miss", "hit", "hit", "hit", "miss", "hit", "miss", "hit", "miss", "hit")
}

// TestQueryErrorsNeverCached: a query that fails stores nothing and fails
// again the same way, and a valid query after it is unaffected.
func TestQueryErrorsNeverCached(t *testing.T) {
	s := newScenario(t, Config{MaxWorkers: 2}).s
	fleetDirs(t, s)
	h := s.Handler()
	queryOK(t, h, `{"group_by":["label.algo"]}`) // result sets are now stored
	entries := s.store.lru.stats().Entries

	noBaseline := `{"group_by":["label.algo"],"compare":{"baseline":{"label.algo":"sac"}}}`
	for i := 0; i < 2; i++ {
		rec := doReq(t, h, "POST", "/v1/query", noBaseline)
		if rec.Code != http.StatusBadRequest || errCode(t, rec) != ErrCodeBadRequest {
			t.Fatalf("baseline matching no group, attempt %d: %d %s", i, rec.Code, rec.Body)
		}
		if rec.Header().Get("X-RLScope-Cache") != "" {
			t.Fatalf("error response carries a cache header: %v", rec.Header())
		}
	}
	if got := s.store.lru.stats().Entries; got != entries {
		t.Fatalf("failed queries changed the cache: %d entries, was %d", got, entries)
	}
	if rec := queryOK(t, h, `{"group_by":["label.algo"]}`); rec.Header().Get("X-RLScope-Cache") != "hit" {
		t.Fatalf("valid query after the failures: cache %q, want hit", rec.Header().Get("X-RLScope-Cache"))
	}
}

// TestColdReadsShareOneRun: one Engine run fills every stored form of its
// answer. On a fresh server a fleet query and the default analyze of one
// registered trace cost one run between them, in either order, and each
// answers the bytes a server that answered it alone does. A filtered and a
// corrected analyze each run their own.
func TestColdReadsShareOneRun(t *testing.T) {
	dir := quickstartDir(t, 20)
	const query = `{"group_by":["workload"]}`
	fresh := func() *scenario {
		return newScenario(t, Config{MaxWorkers: 1, Calibration: scenarioCal}).addDir("qs", dir)
	}
	alone := map[string][]byte{"query": fresh().query(query), "analyze": fresh().analyze("qs", "")}
	for _, order := range [][]string{{"query", "analyze"}, {"analyze", "query"}} {
		sc := fresh()
		for _, op := range order {
			var body []byte
			if op == "query" {
				body = sc.query(query)
			} else {
				body = sc.analyze("qs", "")
			}
			if !bytes.Equal(body, alone[op]) {
				t.Errorf("%v: the %s differs from a server's that answered it alone", order, op)
			}
		}
		// The second request finds what the first one's run stored: the
		// analyze is a hit, the query a miss (its document is its own) at zero
		// Engine runs, which the model checks.
		sc.answered("miss", map[string]string{"query": "hit", "analyze": "miss"}[order[0]])
		if runs := sc.s.EngineRuns(); runs != 1 {
			t.Fatalf("%v: %d Engine runs, want 1", order, runs)
		}
		sc.analyze("qs", `{"procs":[0]}`)
		sc.analyze("qs", `{"correction":true}`)
		sc.answered("miss", "miss")
		if runs := sc.s.EngineRuns(); runs != 3 {
			t.Fatalf("%v: %d Engine runs after a filtered and a corrected analyze, want 3", order, runs)
		}
	}
}

// TestQueryDocsStayOffDisk: the disk tier holds what costs an Engine run —
// result sets and analysis documents — however many distinct queries ran:
// the three traces' sets, run-a's workers=1 document, and the default
// document each run a query started stored beside its set.
func TestQueryDocsStayOffDisk(t *testing.T) {
	reports, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newScenario(t, Config{MaxWorkers: 2, Reports: reports}).s
	fleetDirs(t, s)
	h := s.Handler()
	if rec := doReq(t, h, "POST", "/v1/traces/run-a/analyze", `{"workers":1}`); rec.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", rec.Code, rec.Body)
	}
	for _, body := range []string{
		`{}`,
		`{"group_by":["label.algo"]}`,
		`{"group_by":["label.framework"]}`,
		`{"filter":{"label.algo":"ppo"}}`,
		`{"group_by":["label.algo"],"metrics":["span_ns"]}`,
	} {
		queryOK(t, h, body)
		if rec := queryOK(t, h, body); rec.Header().Get("X-RLScope-Cache") != "hit" {
			t.Fatalf("repeat of %s: cache %q, want hit", body, rec.Header().Get("X-RLScope-Cache"))
		}
	}
	const resultSets, analysisDocs = 3, 3
	if n := diskEntries(t, s.store.disk); n != resultSets+analysisDocs {
		t.Fatalf("disk store holds %d entries, want %d result sets + %d analysis documents", n, resultSets, analysisDocs)
	}
}

// TestQuerySingleflight: identical concurrent cold queries collapse into
// one Execute — one Engine run per trace in total, one miss, the rest
// dedup. The worker budget is held so the flight stays open until every
// request has joined it.
func TestQuerySingleflight(t *testing.T) {
	const n = 6
	s := newScenario(t, Config{MaxWorkers: 2}).s
	fleetDirs(t, s)
	h := s.Handler()
	body := `{"group_by":["label.algo"]}`
	plan, err := fleet.Compile(parseQuery(t, body))
	if err != nil {
		t.Fatal(err)
	}
	candidates, _ := s.queryCandidates()
	matched, err := plan.Select(candidates)
	if err != nil {
		t.Fatal(err)
	}
	key := queryKey(plan.ContentKey(matched))

	if err := s.budget.acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = doReq(t, h, "POST", "/v1/query", body)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.waiting(key) != n {
		if time.Now().After(deadline) {
			s.budget.release(2)
			t.Fatalf("only %d of %d queries joined the flight", s.flights.waiting(key), n)
		}
		time.Sleep(time.Millisecond)
	}
	s.budget.release(2)
	wg.Wait()

	if runs := s.EngineRuns(); runs != 3 {
		t.Fatalf("%d concurrent identical queries cost %d engine runs, want 3", n, runs)
	}
	counts := map[string]int{}
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("query %d body differs", i)
		}
		cache := rec.Header().Get("X-RLScope-Cache")
		counts[cache]++
		if want := map[string]string{"miss": "3", "dedup": "0"}[cache]; rec.Header().Get("X-RLScope-Engine-Runs") != want {
			t.Fatalf("query %d (%s): engine runs %q, want %q", i, cache, rec.Header().Get("X-RLScope-Engine-Runs"), want)
		}
	}
	if counts["miss"] != 1 || counts["dedup"] != n-1 {
		t.Fatalf("cache headers %v, want 1 miss and %d dedup", counts, n-1)
	}
}

// TestStaleResultSetBlobRecomputes: a stored result set that does not
// decode (an older version, a corrupt entry) is a miss — recomputed and
// overwritten — not a permanent 500.
func TestStaleResultSetBlobRecomputes(t *testing.T) {
	s := newScenario(t, Config{MaxWorkers: 2}).s
	dirs := fleetDirs(t, s)
	candidates, _ := s.queryCandidates()
	for _, c := range candidates {
		s.store.add(resultSetKey(c.Digest), []byte(`{"version":0,"procs":[]}`))
	}
	body := `{"group_by":["label.algo"]}`
	rec := doReq(t, s.Handler(), "POST", "/v1/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("query over stale result sets: %d %s", rec.Code, rec.Body)
	}
	if offline := offlineQueryDoc(t, parseQuery(t, body), dirs); !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Fatalf("document diverges from offline:\nserver:\n%s\noffline:\n%s", rec.Body, offline)
	}
	if runs := rec.Header().Get("X-RLScope-Engine-Runs"); runs != "3" {
		t.Fatalf("engine runs %q, want 3 (one per stale result set)", runs)
	}
}

// discardWriter is the cheapest ResponseWriter: the allocation pins below
// count the server's work, not a recorder's.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// warmAllocs reports the allocations of one warm request through the
// handler — request construction, routing and the handler itself.
func warmAllocs(t *testing.T, h http.Handler, method, target, body string) float64 {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		req := &http.Request{Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Host: "t", Body: http.NoBody}
		if body != "" {
			req.Body = io.NopCloser(strings.NewReader(body))
		}
		clear(w.header)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	serve()
	if w.status != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, target, w.status)
	}
	return testing.AllocsPerRun(200, serve)
}

// TestWarmReadAllocs pins what a warm fleet query, a warm summary, an
// analyze cache hit and the trace listing cost. All of them serve stored
// bytes with their stored Content-Length, through a router that allocates
// nothing, so the counts are small and exact: a rise means routing, a body
// decode, a key tail, a query or listing selection, a merge, a render, a row
// encoding, a length or an Engine run crept back onto the hit path. Two of
// each count are this test's request and header map, two more a body's
// reader; what is left of an analyze hit is the body's size limit and its
// key, and of a query the size limit. A trace that was streamed in and
// sealed is held to the registered ones' pins: it is the same kind of
// entry, and its listing row is stored alike.
func TestWarmReadAllocs(t *testing.T) {
	s := newScenario(t, Config{MaxWorkers: 2}).s
	fleetDirs(t, s)
	h := s.Handler()
	streamAndSeal(t, h, "streamed", map[string]string{"algo": "sac"})
	query := `{"group_by":["label.algo"],"compare":{"baseline":{"label.algo":"dqn"}}}`
	queryOK(t, h, query)
	for _, pin := range []struct {
		name, method, target, body string
		max                        float64
	}{
		{"query", "POST", "/v1/query", query, 5},
		{"summary", "GET", "/v1/traces/run-a/summary", "", 2},
		{"analyze", "POST", "/v1/traces/run-a/analyze", `{"workers":1}`, 6},
		{"streamed summary", "GET", "/v1/traces/streamed/summary", "", 2},
		{"streamed analyze", "POST", "/v1/traces/streamed/analyze", `{"workers":1}`, 6},
		{"list", "GET", "/v1/traces", "", 2},
		{"list filtered", "GET", "/v1/traces?label.algo=ppo", "", 2},
	} {
		if got := warmAllocs(t, h, pin.method, pin.target, pin.body); got > pin.max {
			t.Errorf("warm %s: %.0f allocs per request, want <= %.0f", pin.name, got, pin.max)
		} else {
			t.Logf("warm %s: %.0f allocs per request (pin %.0f)", pin.name, got, pin.max)
		}
	}
}

// TestPreviousKeyFormMisses: a document an older build stored — under the
// key form from before keys carried report.DocumentVersion — is a miss, an
// analysis document on the disk tier and a query document in memory alike,
// so the new build recomputes it instead of serving another build's bytes.
// So is a result set stored on disk under the key form from before its key
// carried report.ResultSetVersion, even one that decodes: it is never read,
// and the recomputed set lands under the new key.
func TestPreviousKeyFormMisses(t *testing.T) {
	stale := []byte(`{"stale":true}` + "\n")
	dir := quickstartDir(t, 20)
	digest, err := trace.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Put(digest+"|w=1|m=0|c=0|p=", stale); err != nil {
		t.Fatal(err)
	}
	s := newScenario(t, Config{Reports: disk}).addDir("qs", dir).s
	h := s.Handler()
	rec := mustOK(t, h, "POST", "/v1/traces/qs/analyze", `{"workers":1}`)
	if got := rec.Header().Get("X-RLScope-Cache"); got != "miss" || bytes.Equal(rec.Body.Bytes(), stale) {
		t.Fatalf("analyze answered %q from cache %q; the previous key form must miss", rec.Body.Bytes(), got)
	}

	dirs := fleetDirs(t, s)
	dirs["qs"] = dir
	candidates, _ := s.queryCandidates()
	var empty bytes.Buffer
	if err := report.EncodeResultSet(&empty, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range candidates {
		if err := disk.Put("rs|"+c.Digest, empty.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	body := `{"group_by":["label.algo"]}`
	plan, err := fleet.Compile(parseQuery(t, body))
	if err != nil {
		t.Fatal(err)
	}
	matched, err := plan.Select(candidates)
	if err != nil {
		t.Fatal(err)
	}
	s.store.add("q|"+plan.ContentKey(matched), stale)
	rec = queryOK(t, h, body)
	if got := rec.Header().Get("X-RLScope-Cache"); got != "miss" || bytes.Equal(rec.Body.Bytes(), stale) {
		t.Fatalf("query answered %q from cache %q; the previous key form must miss", rec.Body.Bytes(), got)
	}
	// qs's set landed under the new key with its analyze above.
	if got, want := rec.Header().Get("X-RLScope-Engine-Runs"), strconv.Itoa(len(candidates)-1); got != want {
		t.Errorf("query paid %s engine runs, want %s: a result set under the previous key form was served", got, want)
	}
	if offline := offlineQueryDoc(t, parseQuery(t, body), dirs); !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Errorf("document diverges from offline:\nserver:\n%s\noffline:\n%s", rec.Body, offline)
	}
	for _, c := range candidates {
		blob, ok := disk.Get(resultSetKey(c.Digest))
		if !ok {
			t.Errorf("%s: no result set on disk under %q", c.ID, resultSetKey(c.Digest))
			continue
		}
		if results, err := report.DecodeResultSet(blob); err != nil || len(results) == 0 {
			t.Errorf("%s: result set under the new key decodes to %d processes, %v", c.ID, len(results), err)
		}
	}
}
