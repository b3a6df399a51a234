package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/trace"
)

// The serving hot paths, gated in CI: a cache hit must answer from stored
// bytes — no Engine work, no re-encoding — which the gate enforces as a
// roughly three-orders-of-magnitude ns/op gap (the acceptance floor is
// 100x) and a flat allocation profile against the cache-miss path, which
// pays the full Engine run on the quickstart trace every iteration.

const benchAnalyzeBody = `{"workers":1}`

func benchServer(b *testing.B) *Server {
	b.Helper()
	return newTestServer(b, Config{}, quickstartDir(b, 100))
}

func benchAnalyze(b *testing.B, h http.Handler) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/traces/qs/analyze", strings.NewReader(benchAnalyzeBody))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("analyze: %d %s", rec.Code, rec.Body)
	}
	return rec
}

func BenchmarkServeCacheHit(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	rec := benchAnalyze(b, h) // warm the cache
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAnalyze(b, h)
	}
	b.StopTimer()
	if runs := s.EngineRuns(); runs != 1 {
		b.Fatalf("cache hits performed engine work: %d runs for %d requests", runs, b.N+1)
	}
}

// BenchmarkIncrementalAppend measures the live-ingest steady state: one
// chunk append plus the analyze that absorbs it as an epoch, against a
// trace that already holds many chunks. This is the path whose cost must
// stay O(chunk) — printed as events_swept/op, the events the iteration
// handed to the sweeper — which the gate watches alongside the batch cache
// paths; the closing counter check proves no iteration fell back to a batch
// Engine run.
func BenchmarkIncrementalAppend(b *testing.B) {
	s := NewServer(Config{StoreDir: b.TempDir()})
	b.Cleanup(s.Close)
	h := s.Handler()

	tr := quickstartTrace(b, 100)
	const perChunk = 64
	post := func(seq int, chunk []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", fmt.Sprintf("/v1/traces/bench/chunks?seq=%d", seq), bytes.NewReader(chunk))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("append %d: %d %s", seq, rec.Code, rec.Body)
		}
	}
	analyze := func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/traces/bench/analyze", strings.NewReader(benchAnalyzeBody))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("analyze: %d %s", rec.Code, rec.Body)
		}
	}

	seq := 0
	for _, chunk := range eventFrames(b, tr.Events, perChunk) {
		post(seq, chunk)
		seq++
	}
	analyze() // absorb the base trace so iterations measure the increment

	// Every iteration appends the same (re-sequenced) frame: a fresh chunk
	// of real events landing on an already-analyzed trace.
	iterChunk, _, err := trace.EncodeEvents(tr.Events[:perChunk])
	if err != nil {
		b.Fatal(err)
	}
	base, _ := s.IncrementalStats("bench")
	b.SetBytes(int64(len(iterChunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(seq, iterChunk)
		seq++
		analyze()
	}
	b.StopTimer()
	end, _ := s.IncrementalStats("bench")
	b.ReportMetric(float64(end.EventsSwept-base.EventsSwept)/float64(b.N), "events_swept/op")
	if runs := s.EngineRuns(); runs != 0 {
		b.Fatalf("incremental appends fell back to %d batch engine runs", runs)
	}
}

// BenchmarkFleetQueryWarm measures the fleet steady state: a grouped query
// repeated over an unchanged fleet is a document hit — decode and compile
// the query, select, hash the content key, one LRU lookup, write the stored
// bytes; no result set is decoded, nothing merged or rendered. The closing
// counter check proves no iteration paid an Engine run.
func BenchmarkFleetQueryWarm(b *testing.B) {
	s := NewServer(Config{})
	b.Cleanup(s.Close)
	algos := []string{"ppo", "dqn", "a2c"}
	for i, algo := range algos {
		if _, err := s.AddDir(fmt.Sprintf("run-%d", i), labeledDir(b, 40+10*i, map[string]string{"algo": algo})); err != nil {
			b.Fatal(err)
		}
	}
	h := s.Handler()
	query := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"group_by":["label.algo"]}`))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("query: %d %s", rec.Code, rec.Body)
		}
		return rec
	}
	rec := query() // the miss: fills the result-set store and the document cache
	warmRuns := s.EngineRuns()
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	b.StopTimer()
	if runs := s.EngineRuns(); runs != warmRuns {
		b.Fatalf("warm queries performed engine work: %d extra runs", runs-warmRuns)
	}
}

func BenchmarkServeCacheMiss(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	rec := benchAnalyze(b, h)
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.store.lru.reset() // force the full Engine run every iteration
		b.StartTimer()
		benchAnalyze(b, h)
	}
}
