package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	rlscope "repro"
	"repro/internal/fleet"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
)

// labeledDir writes a quickstart trace directory whose metadata carries
// the given labels — distinct labels make distinct content digests.
func labeledDir(tb testing.TB, steps int, labels map[string]string) string {
	tb.Helper()
	tr := quickstartTrace(tb, steps)
	tr.Meta.Labels = labels
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

// fleetDirs registers three labeled quickstart traces on a server: two
// ppo runs and one dqn run.
func fleetDirs(tb testing.TB, s *Server) map[string]string {
	tb.Helper()
	dirs := map[string]string{
		"run-a": labeledDir(tb, 12, map[string]string{"algo": "ppo", "framework": "tf"}),
		"run-b": labeledDir(tb, 18, map[string]string{"algo": "ppo", "framework": "torch"}),
		"run-c": labeledDir(tb, 24, map[string]string{"algo": "dqn", "framework": "tf"}),
	}
	for id, dir := range dirs {
		if _, err := s.AddDir(id, dir); err != nil {
			tb.Fatal(err)
		}
	}
	return dirs
}

// offlineQueryDoc computes the expected document the way rlscope-query
// does: compile the same DSL, load each trace's results with a fresh
// Engine run, render.
func offlineQueryDoc(tb testing.TB, q fleet.Query, dirs map[string]string) []byte {
	tb.Helper()
	plan, err := fleet.Compile(q)
	if err != nil {
		tb.Fatal(err)
	}
	var candidates []fleet.Trace
	for id, dir := range dirs {
		r, err := trace.OpenDir(dir)
		if err != nil {
			tb.Fatal(err)
		}
		candidates = append(candidates, fleet.Trace{ID: id, Meta: r.Meta()})
	}
	doc, err := plan.Execute(context.Background(), candidates, func(ctx context.Context, t fleet.Trace) (map[trace.ProcID]*overlap.Result, error) {
		rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(ctx, rlscope.FromDir(dirs[t.ID]))
		if err != nil {
			return nil, err
		}
		return rep.Results, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestQueryEndpoint(t *testing.T) {
	s := NewServer(Config{MaxWorkers: 2})
	t.Cleanup(s.Close)
	dirs := fleetDirs(t, s)
	h := s.Handler()

	body := `{"group_by":["label.algo"],"metrics":["total_ns","gpu_ns","gpu_frac"]}`
	rec := doReq(t, h, "POST", "/v1/query", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	if runs := rec.Header().Get("X-RLScope-Engine-Runs"); runs != "3" {
		t.Fatalf("cold query engine runs %q, want 3", runs)
	}
	var doc report.QueryDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Traces != 3 || len(doc.Groups) != 2 {
		t.Fatalf("doc has %d traces in %d groups, want 3 in 2: %s", doc.Traces, len(doc.Groups), rec.Body)
	}
	if doc.Groups[0].Key["label.algo"] != "dqn" || doc.Groups[1].Key["label.algo"] != "ppo" {
		t.Fatalf("group keys out of order: %s", rec.Body)
	}

	// The server's document is byte-identical to the offline computation
	// over the same traces and query — the CLI/server cmp contract.
	var q fleet.Query
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	if offline := offlineQueryDoc(t, q, dirs); !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Fatalf("server document diverges from offline:\nserver:\n%s\noffline:\n%s", rec.Body, offline)
	}

	// Repeat: every result set is now stored, zero Engine runs, same bytes.
	rec2 := doReq(t, h, "POST", "/v1/query", body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm query: %d %s", rec2.Code, rec2.Body)
	}
	if runs := rec2.Header().Get("X-RLScope-Engine-Runs"); runs != "0" {
		t.Fatalf("warm query engine runs %q, want 0", runs)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("warm query bytes differ from cold query")
	}

	// A filter with no matches is an empty (but valid) document.
	rec3 := doReq(t, h, "POST", "/v1/query", `{"filter":{"label.algo":"nothing"}}`)
	if rec3.Code != http.StatusOK {
		t.Fatalf("empty query: %d %s", rec3.Code, rec3.Body)
	}
	if err := json.Unmarshal(rec3.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Traces != 0 || len(doc.Groups) != 0 {
		t.Fatalf("no-match query: %s", rec3.Body)
	}
}

// TestQueryFleetScaleWarm is the ISSUE's scale acceptance check: a
// grouped query over 100+ registered traces performs zero Engine runs
// once the report store is warm — the warm cost is store lookups plus
// the exact merge, independent of fleet size.
func TestQueryFleetScaleWarm(t *testing.T) {
	const fleetSize = 120
	s := NewServer(Config{MaxWorkers: 2})
	t.Cleanup(s.Close)
	// Same tiny event stream everywhere; the labels alone make each
	// directory distinct content (labels live in meta.json, so they are
	// part of the digest).
	for i := 0; i < fleetSize; i++ {
		dir := labeledDir(t, 6, map[string]string{
			"algo": []string{"ppo", "dqn", "a2c"}[i%3],
			"run":  fmt.Sprintf("%03d", i),
		})
		if _, err := s.AddDir(fmt.Sprintf("run-%03d", i), dir); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()

	body := `{"group_by":["label.algo"]}`
	cold := doReq(t, h, "POST", "/v1/query", body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold query: %d %s", cold.Code, cold.Body)
	}
	if runs := cold.Header().Get("X-RLScope-Engine-Runs"); runs != fmt.Sprint(fleetSize) {
		t.Fatalf("cold query engine runs %q, want %d", runs, fleetSize)
	}
	var doc report.QueryDoc
	if err := json.Unmarshal(cold.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Traces != fleetSize || len(doc.Groups) != 3 {
		t.Fatalf("doc has %d traces in %d groups, want %d in 3", doc.Traces, len(doc.Groups), fleetSize)
	}

	coldRuns := s.EngineRuns()
	warm := doReq(t, h, "POST", "/v1/query", body)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm query: %d %s", warm.Code, warm.Body)
	}
	if runs := warm.Header().Get("X-RLScope-Engine-Runs"); runs != "0" {
		t.Fatalf("warm query engine runs %q, want 0", runs)
	}
	if got := s.EngineRuns(); got != coldRuns {
		t.Fatalf("warm query started %d engine runs", got-coldRuns)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("warm query bytes differ from cold query")
	}
}

func TestQueryBadRequests(t *testing.T) {
	s := NewServer(Config{MaxWorkers: 1})
	t.Cleanup(s.Close)
	h := s.Handler()
	for _, body := range []string{
		`{"bogus_field": 1}`,
		`{"group_by":["nope"]}`,
		`{"filter":{"workload":"[unclosed"}}`,
		`{"metrics":["watts"]}`,
		`{"compare":{"baseline":{"label.algo":"x"}}}`,
		`not json`,
	} {
		rec := doReq(t, h, "POST", "/v1/query", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("query %s: %d, want 400", body, rec.Code)
			continue
		}
		if code := errCode(t, rec); code != ErrCodeBadRequest {
			t.Errorf("query %s: error code %q, want %q", body, code, ErrCodeBadRequest)
		}
	}
}

// TestQueryWarmRestart is the persistence tentpole: a server restarted
// over the same -store-reports directory answers the repeat query with
// zero Engine runs and byte-identical output.
func TestQueryWarmRestart(t *testing.T) {
	reportDir := t.TempDir()
	reports, err := NewDiskStore(reportDir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewServer(Config{MaxWorkers: 2, Reports: reports})
	dirs := fleetDirs(t, s1)
	body := `{"group_by":["label.framework"]}`
	rec1 := doReq(t, s1.Handler(), "POST", "/v1/query", body)
	if rec1.Code != http.StatusOK {
		t.Fatalf("cold query: %d %s", rec1.Code, rec1.Body)
	}
	if runs := s1.EngineRuns(); runs != 3 {
		t.Fatalf("cold server ran %d engines, want 3", runs)
	}
	s1.Close()

	reports, err = NewDiskStore(reportDir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(Config{MaxWorkers: 2, Reports: reports})
	t.Cleanup(s2.Close)
	for id, dir := range dirs {
		if _, err := s2.AddDir(id, dir); err != nil {
			t.Fatal(err)
		}
	}
	rec2 := doReq(t, s2.Handler(), "POST", "/v1/query", body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm query: %d %s", rec2.Code, rec2.Body)
	}
	if runs := s2.EngineRuns(); runs != 0 {
		t.Fatalf("restarted server ran %d engines, want 0 (report store is warm)", runs)
	}
	if runs := rec2.Header().Get("X-RLScope-Engine-Runs"); runs != "0" {
		t.Fatalf("warm query header %q, want 0", runs)
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("restarted server's document differs")
	}
}

func TestTraceListFilters(t *testing.T) {
	s := NewServer(Config{MaxWorkers: 1})
	t.Cleanup(s.Close)
	fleetDirs(t, s)
	h := s.Handler()

	count := func(path string) int {
		t.Helper()
		rec := doReq(t, h, "GET", path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		var listing struct {
			Traces []TraceInfo `json:"traces"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
			t.Fatal(err)
		}
		return len(listing.Traces)
	}
	if n := count("/v1/traces"); n != 3 {
		t.Fatalf("unfiltered listing: %d, want 3", n)
	}
	if n := count("/v1/traces?label.algo=ppo"); n != 2 {
		t.Fatalf("label.algo=ppo: %d, want 2", n)
	}
	if n := count("/v1/traces?label.algo=ppo&label.framework=tf"); n != 1 {
		t.Fatalf("two label filters: %d, want 1", n)
	}
	if n := count("/v1/traces?workload=quick*"); n != 3 {
		t.Fatalf("workload glob: %d, want 3", n)
	}
	if n := count("/v1/traces?id=run-[ab]"); n != 2 {
		t.Fatalf("id glob: %d, want 2", n)
	}
	if n := count("/v1/traces?label.missing=x"); n != 0 {
		t.Fatalf("absent label: %d, want 0", n)
	}
	rec := doReq(t, h, "GET", "/v1/traces?bogus=1", "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus filter param: %d, want 400", rec.Code)
	}

	// Labels ride along in the listing rows.
	rec = doReq(t, h, "GET", "/v1/traces?id=run-a", "")
	var listing struct {
		Traces []TraceInfo `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if got := listing.Traces[0].Labels["algo"]; got != "ppo" {
		t.Fatalf("listed labels %v", listing.Traces[0].Labels)
	}
}

// streamAndSeal streams the quickstart trace into a live server under id
// with the given labels, seals it, and returns its final digest.
func streamAndSeal(tb testing.TB, h http.Handler, id string, labels map[string]string) string {
	tb.Helper()
	chunks, meta := quickstartFrames(tb, 10, 3)
	meta.Labels = labels
	for seq := range chunks {
		rec := doReq(tb, h, "POST", fmt.Sprintf("/v1/traces/%s/chunks?seq=%d", id, seq), string(chunks[seq]))
		if rec.Code != http.StatusOK {
			tb.Fatalf("append %d: %d %s", seq, rec.Code, rec.Body)
		}
	}
	metaBody, err := json.Marshal(meta)
	if err != nil {
		tb.Fatal(err)
	}
	rec := doReq(tb, h, "POST", "/v1/traces/"+id+"/seal", string(metaBody))
	if rec.Code != http.StatusOK {
		tb.Fatalf("seal: %d %s", rec.Code, rec.Body)
	}
	var sealed SealResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sealed); err != nil {
		tb.Fatal(err)
	}
	return sealed.Digest
}

// TestQueryOverSealedLive: sealed live traces are fleet candidates, and
// sealing itself populated the result-set store — so querying them costs
// zero Engine runs. Open live traces are excluded until sealed.
func TestQueryOverSealedLive(t *testing.T) {
	s, _ := liveServer(t, Config{MaxWorkers: 2})
	h := s.Handler()

	chunk, _ := quickstartFrames(t, 10, 1)
	if rec := doReq(t, h, "POST", "/v1/traces/open1/chunks?seq=0", string(chunk[0])); rec.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	rec := doReq(t, h, "POST", "/v1/query", `{}`)
	var doc report.QueryDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Traces != 0 {
		t.Fatalf("open live trace entered a fleet query: %s", rec.Body)
	}

	streamAndSeal(t, h, "live-ppo", map[string]string{"algo": "ppo"})
	streamAndSeal(t, h, "live-dqn", map[string]string{"algo": "dqn"})
	rec = doReq(t, h, "POST", "/v1/query", `{"group_by":["label.algo"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Traces != 2 || len(doc.Groups) != 2 {
		t.Fatalf("sealed live query: %d traces in %d groups, want 2 in 2", doc.Traces, len(doc.Groups))
	}
	if got := doc.Groups[0].TraceIDs[0]; got != "live-dqn" {
		t.Fatalf("dqn group members %v", doc.Groups[0].TraceIDs)
	}
	// Seal already stored each trace's result set; the query needed no
	// Engine at all.
	if runs := rec.Header().Get("X-RLScope-Engine-Runs"); runs != "0" {
		t.Fatalf("sealed-live query engine runs %q, want 0", runs)
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("server ran %d engines, want 0", runs)
	}
}

// TestSealEvictsIncremental: sealing drops the resident incremental state
// while keeping the final document, the final counters, and a working
// (store-backed) filtered-analysis path.
func TestSealEvictsIncremental(t *testing.T) {
	s, _ := liveServer(t, Config{MaxWorkers: 2})
	h := s.Handler()

	// Analyze mid-stream so the incremental state has done real work.
	chunks, meta := quickstartFrames(t, 10, 3)
	meta.Labels = map[string]string{"algo": "ppo"}
	for seq := 0; seq < 2; seq++ {
		if rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/run/chunks?seq=%d", seq), string(chunks[seq])); rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d %s", seq, rec.Code, rec.Body)
		}
	}
	if rec := doReq(t, h, "POST", "/v1/traces/run/analyze", `{}`); rec.Code != http.StatusOK {
		t.Fatalf("mid-stream analyze: %d %s", rec.Code, rec.Body)
	}
	if rec := doReq(t, h, "POST", "/v1/traces/run/chunks?seq=2", string(chunks[2])); rec.Code != http.StatusOK {
		t.Fatalf("append 2: %d %s", rec.Code, rec.Body)
	}
	preSeal, ok := s.IncrementalStats("run")
	if !ok || preSeal.Epochs != 1 {
		t.Fatalf("pre-seal stats %+v ok=%v", preSeal, ok)
	}

	metaBody, _ := json.Marshal(meta)
	if rec := doReq(t, h, "POST", "/v1/traces/run/seal", string(metaBody)); rec.Code != http.StatusOK {
		t.Fatalf("seal: %d %s", rec.Code, rec.Body)
	}
	entry := s.lookup("run")
	if entry.live != nil || entry.streamed == nil {
		t.Fatal("seal did not replace the open entry (and its incremental state) with a sealed one")
	}

	// The final counters survive eviction, including the seal's last epoch.
	post, ok := s.IncrementalStats("run")
	if !ok || post.Epochs != preSeal.Epochs+1 || post.Chunks != len(chunks) {
		t.Fatalf("post-seal stats %+v ok=%v (pre-seal %+v)", post, ok, preSeal)
	}

	// Unfiltered analyzes serve the document cached at seal time — zero
	// Engine runs, byte-identical to the offline result-only document.
	rec := doReq(t, h, "POST", "/v1/traces/run/analyze", `{}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-seal analyze: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-RLScope-Cache"); got != "hit" {
		t.Fatalf("post-seal analyze cache %q, want hit", got)
	}
	dir := entry.dir
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var offline bytes.Buffer
	if err := report.NewResultAnalysis(rep.Meta, rep.Results, false).Encode(&offline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), offline.Bytes()) {
		t.Fatalf("sealed document diverges from offline:\nlive:\n%s\noffline:\n%s", rec.Body, offline.String())
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("unfiltered post-seal analyze ran %d engines, want 0", runs)
	}

	// A filtered analyze of the evicted trace renders the requested
	// processes of the result set stored at seal — still zero Engine runs —
	// and produces the filtered result-only doc.
	rec = doReq(t, h, "POST", "/v1/traces/run/analyze", `{"procs":[0]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("filtered post-seal analyze: %d %s", rec.Code, rec.Body)
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("filtered post-seal analyze ran %d engines, want 0", runs)
	}
	repF, err := rlscope.NewEngine(rlscope.WithWorkers(1), rlscope.WithProcesses(0)).Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var offlineF bytes.Buffer
	if err := report.NewResultAnalysis(repF.Meta, repF.Results, false).Encode(&offlineF); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), offlineF.Bytes()) {
		t.Fatalf("filtered sealed document diverges from offline")
	}
	// Repeating the same filtered request hits the per-trace cache.
	rec = doReq(t, h, "POST", "/v1/traces/run/analyze", `{"procs":[0]}`)
	if got := rec.Header().Get("X-RLScope-Cache"); got != "hit" {
		t.Fatalf("repeat filtered analyze cache %q, want hit", got)
	}
	if runs := s.EngineRuns(); runs != 0 {
		t.Fatalf("repeat filtered analyze ran engines: %d", runs)
	}
}
