package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
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
// as a byte-identical hit. There is no purge to get wrong — a stale answer
// could only come from two fleets sharing a key.
func TestQueryDocInvalidation(t *testing.T) {
	type run struct {
		id     string
		labels map[string]string
		steps  int // 0 = streamed live and sealed
	}
	pool := []run{
		{"run-a", map[string]string{"algo": "ppo", "framework": "tf"}, 8},
		{"run-b", map[string]string{"algo": "ppo", "framework": "torch"}, 12},
		{"run-c", map[string]string{"algo": "dqn", "framework": "tf"}, 16},
		{"live-d", map[string]string{"algo": "dqn", "framework": "torch"}, 0},
		{"live-e", map[string]string{"algo": "ppo", "framework": "tf"}, 0},
	}
	queries := []string{
		`{"group_by":["label.algo"],"metrics":["total_ns","gpu_frac","transitions"]}`,
		`{"filter":{"label.algo":"ppo"},"group_by":["label.framework"]}`,
	}
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s, store := liveServer(t, Config{MaxWorkers: 2})
			h := s.Handler()
			dirs := map[string]string{}
			for step, i := range rand.New(rand.NewSource(seed)).Perm(len(pool)) {
				r := pool[i]
				if r.steps > 0 {
					dirs[r.id] = labeledDir(t, r.steps, r.labels)
					if _, err := s.AddDir(r.id, dirs[r.id]); err != nil {
						t.Fatal(err)
					}
				} else {
					streamAndSeal(t, h, r.id, r.labels)
					dirs[r.id] = filepath.Join(store, r.id)
				}
				for _, body := range queries {
					q := parseQuery(t, body)
					filter, err := fleet.NewMatcher(q.Filter)
					if err != nil {
						t.Fatal(err)
					}
					want := "hit"
					if step == 0 || filter.Match(fleet.Trace{ID: r.id, Meta: trace.Meta{Workload: "quickstart", Labels: r.labels}}) {
						want = "miss"
					}
					rec := queryOK(t, h, body)
					if got := rec.Header().Get("X-RLScope-Cache"); got != want {
						t.Fatalf("after registering %s, query %s: cache %q, want %q", r.id, body, got, want)
					}
					if offline := offlineQueryDoc(t, q, dirs); !bytes.Equal(rec.Body.Bytes(), offline) {
						t.Fatalf("after registering %s, query %s diverges from offline:\nserver:\n%s\noffline:\n%s", r.id, body, rec.Body, offline)
					}
					again := queryOK(t, h, body)
					if got := again.Header().Get("X-RLScope-Cache"); got != "hit" {
						t.Fatalf("repeat of %s: cache %q, want hit", body, got)
					}
					if got := again.Header().Get("X-RLScope-Engine-Runs"); got != "0" {
						t.Fatalf("repeat of %s: engine runs %q, want 0", body, got)
					}
					if !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
						t.Fatalf("repeat of %s: hit bytes differ from the miss", body)
					}
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
	s := NewServer(Config{MaxWorkers: 2})
	t.Cleanup(s.Close)
	dirs := fleetDirs(t, s)
	h := s.Handler()
	body := `{"filter":{"label.algo":"ppo"},"group_by":["label.framework"]}`
	add := func(id, dir string) {
		t.Helper()
		if _, err := s.AddDir(id, dir); err != nil {
			t.Fatal(err)
		}
		dirs[id] = dir
	}
	expect := func(want string) {
		t.Helper()
		rec := queryOK(t, h, body)
		if got := rec.Header().Get("X-RLScope-Cache"); got != want {
			t.Fatalf("cache %q, want %q", got, want)
		}
		if offline := offlineQueryDoc(t, parseQuery(t, body), dirs); !bytes.Equal(rec.Body.Bytes(), offline) {
			t.Fatalf("document diverges from offline:\nserver:\n%s\noffline:\n%s", rec.Body, offline)
		}
	}
	expect("miss")
	expect("hit")
	add("run-d", labeledDir(t, 30, map[string]string{"algo": "dqn", "framework": "torch"}))
	expect("hit") // the filter rejects run-d
	add("run-e", labeledDir(t, 30, map[string]string{"algo": "ppo", "framework": "tf"}))
	expect("miss") // new matching content
	expect("hit")
	add("run-a2", dirs["run-a"])
	expect("miss") // run-a's content, second id
	expect("hit")
	add("run-f", labeledDir(t, 12, map[string]string{"algo": "ppo", "framework": "jax"}))
	expect("miss") // run-a's events, another group
	expect("hit")
}

// TestQueryErrorsNeverCached: a query that fails — at selection or at
// render — stores nothing and fails again the same way, and a valid query
// after it is unaffected.
func TestQueryErrorsNeverCached(t *testing.T) {
	s := NewServer(Config{MaxWorkers: 2})
	t.Cleanup(s.Close)
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

	// Duplicate ids cannot come from the registry; the CLI can produce them
	// (two directories with one basename) and reaches the same Query.
	plan, err := fleet.Compile(fleet.Query{})
	if err != nil {
		t.Fatal(err)
	}
	dup := append(s.queryCandidates(), s.queryCandidates()[0])
	for i := 0; i < 2; i++ {
		var qerr *fleet.QueryError
		if _, err := s.Query(context.Background(), plan, dup); !errors.As(err, &qerr) {
			t.Fatalf("duplicate ids, attempt %d: err %v, want a QueryError", i, err)
		}
	}
	if got := s.store.lru.stats().Entries; got != entries {
		t.Fatalf("failed queries changed the cache: %d entries, was %d", got, entries)
	}
	if rec := queryOK(t, h, `{"group_by":["label.algo"]}`); rec.Header().Get("X-RLScope-Cache") != "hit" {
		t.Fatalf("valid query after the failures: cache %q, want hit", rec.Header().Get("X-RLScope-Cache"))
	}
}

// TestQueryDocsStayOffDisk: the disk tier holds what costs an Engine run —
// result sets and analysis documents — however many distinct queries ran.
func TestQueryDocsStayOffDisk(t *testing.T) {
	s, err := NewServerStrict(Config{MaxWorkers: 2, ReportDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
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
	const resultSets, analysisDocs = 3, 1
	if n := diskEntries(t, s.store.disk); n != resultSets+analysisDocs {
		t.Fatalf("disk store holds %d entries, want %d result sets + %d analysis document", n, resultSets, analysisDocs)
	}
}

// TestQuerySingleflight: identical concurrent cold queries collapse into
// one Execute — one Engine run per trace in total, one miss, the rest
// dedup. The worker budget is held so the flight stays open until every
// request has joined it.
func TestQuerySingleflight(t *testing.T) {
	const n = 6
	s := NewServer(Config{MaxWorkers: 2})
	t.Cleanup(s.Close)
	fleetDirs(t, s)
	h := s.Handler()
	body := `{"group_by":["label.algo"]}`
	plan, err := fleet.Compile(parseQuery(t, body))
	if err != nil {
		t.Fatal(err)
	}
	matched, err := plan.Select(s.queryCandidates())
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
	s := NewServer(Config{MaxWorkers: 2})
	t.Cleanup(s.Close)
	dirs := fleetDirs(t, s)
	for _, c := range s.queryCandidates() {
		s.store.add(ResultSetKey(c.Digest), []byte(`{"version":0,"procs":[]}`))
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

// TestWarmReadAllocs pins what a warm fleet query, a warm summary and an
// analyze cache hit cost. All three serve stored bytes, so the counts are
// small and exact: a rise means a decode, a merge, a render or an Engine
// run crept back onto the hit path. A trace that was streamed in and sealed
// is held to the registered ones' pins: it is the same kind of entry.
func TestWarmReadAllocs(t *testing.T) {
	s, _ := liveServer(t, Config{MaxWorkers: 2})
	fleetDirs(t, s)
	h := s.Handler()
	streamAndSeal(t, h, "streamed", map[string]string{"algo": "sac"})
	query := `{"group_by":["label.algo"],"compare":{"baseline":{"label.algo":"dqn"}}}`
	queryOK(t, h, query)
	for _, pin := range []struct {
		name, method, target, body string
		max                        float64
	}{
		{"query", "POST", "/v1/query", query, 43},
		{"summary", "GET", "/v1/traces/run-a/summary", "", 6},
		{"analyze", "POST", "/v1/traces/run-a/analyze", `{"workers":1}`, 23},
		{"streamed summary", "GET", "/v1/traces/streamed/summary", "", 6},
		{"streamed analyze", "POST", "/v1/traces/streamed/analyze", `{"workers":1}`, 23},
	} {
		if got := warmAllocs(t, h, pin.method, pin.target, pin.body); got > pin.max {
			t.Errorf("warm %s: %.0f allocs per request, want <= %.0f", pin.name, got, pin.max)
		} else {
			t.Logf("warm %s: %.0f allocs per request (pin %.0f)", pin.name, got, pin.max)
		}
	}
}
