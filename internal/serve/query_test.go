package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
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
	return rewriteDir(tb, tb.TempDir(), steps, labels)
}

// fleetRuns writes three labeled quickstart traces: two ppo runs and one
// dqn run.
func fleetRuns(tb testing.TB) map[string]string {
	return map[string]string{
		"run-a": labeledDir(tb, 12, map[string]string{"algo": "ppo", "framework": "tf"}),
		"run-b": labeledDir(tb, 18, map[string]string{"algo": "ppo", "framework": "torch"}),
		"run-c": labeledDir(tb, 24, map[string]string{"algo": "dqn", "framework": "tf"}),
	}
}

// fleetDirs registers fleetRuns on a server.
func fleetDirs(tb testing.TB, s *Server) map[string]string {
	tb.Helper()
	dirs := fleetRuns(tb)
	for id, dir := range dirs {
		if _, err := s.AddDir(id, dir); err != nil {
			tb.Fatal(err)
		}
	}
	return dirs
}

// addFleet registers fleetRuns through the scenario.
func (sc *scenario) addFleet() map[string]string {
	dirs := fleetRuns(sc.tb)
	for _, id := range slices.Sorted(maps.Keys(dirs)) {
		sc.addDir(id, dirs[id])
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

// TestQueryEndpoint: a cold query over three registered runs costs three
// Engine runs and is the offline document, grouped dqn before ppo; its
// repeat is a hit at no run; a filter matching nothing is the empty
// document.
func TestQueryEndpoint(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 1})
	sc.addFleet()
	body := `{"group_by":["label.algo"],"metrics":["total_ns","gpu_ns","gpu_frac"]}`
	var doc report.QueryDoc
	if err := json.Unmarshal(sc.query(body), &doc); err != nil || doc.Traces != 3 || len(doc.Groups) != 2 ||
		doc.Groups[0].Key["label.algo"] != "dqn" || doc.Groups[1].Key["label.algo"] != "ppo" {
		t.Fatalf("doc of %d traces in groups %+v (%v), want 3 in dqn then ppo", doc.Traces, doc.Groups, err)
	}
	sc.query(body)
	if err := json.Unmarshal(sc.query(`{"filter":{"label.algo":"nothing"}}`), &doc); err != nil || doc.Traces != 0 || len(doc.Groups) != 0 {
		t.Fatalf("no-match query: %+v (%v)", doc, err)
	}
}

// TestQueryFleetScaleWarm is the ISSUE's scale acceptance check: a
// grouped query over 100+ registered traces performs zero Engine runs
// once the report store is warm — the warm cost is store lookups plus
// the exact merge, independent of fleet size.
func TestQueryFleetScaleWarm(t *testing.T) {
	const fleetSize = 120
	s := newScenario(t, Config{MaxWorkers: 2}).s
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

// TestQueryBadRequests: a body with an unknown field, an unknown dimension,
// a malformed glob, an unknown metric, a baseline without group_by, and
// bytes that are not JSON are each 400 bad_request.
func TestQueryBadRequests(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 1})
	bodies := []string{`{"bogus_field": 1}`, `{"group_by":["nope"]}`, `{"filter":{"workload":"[unclosed"}}`,
		`{"metrics":["watts"]}`, `{"compare":{"baseline":{"label.algo":"x"}}}`, `not json`}
	for _, body := range bodies {
		sc.query(body)
	}
	bad := ErrCodeBadRequest
	sc.answered(bad, bad, bad, bad, bad, bad)
}

// TestQueryWarmRestart is the persistence tentpole: a server restarted over
// the same -store-reports directory answers the repeat query, a memory miss,
// with zero Engine runs and the same document.
func TestQueryWarmRestart(t *testing.T) {
	reports, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := newScenario(t, Config{MaxWorkers: 1, Reports: reports})
	sc.addFleet()
	sc.query(`{"group_by":["label.framework"]}`)
	sc.restart()
	sc.query(`{"group_by":["label.framework"]}`)
	sc.answered("miss", "miss") // the second at no Engine run, the model checked
}

// TestTraceListFilters: listing filters share the fleet matcher — labels,
// several at once, workload and id globs, an absent label — an unknown
// parameter is 400, and labels ride along in the rows.
func TestTraceListFilters(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 1})
	sc.addFleet()
	for query, n := range map[string]int{"": 3, "label.algo=ppo": 2, "label.algo=ppo&label.framework=tf": 1,
		"workload=quick*": 3, "id=run-[ab]": 2, "label.missing=x": 0} {
		if rows := sc.list(query); len(rows) != n {
			t.Errorf("?%s: %d rows, want %d", query, len(rows), n)
		}
	}
	sc.list("bogus=1")
	if rows := sc.list("id=run-a"); rows[0].Labels["algo"] != "ppo" {
		t.Fatalf("listed labels %v", rows[0].Labels)
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

// TestQueryOverSealedLive: an open trace is no fleet candidate; sealed
// streamed traces are, and their seal already stored their result sets, so
// the query costs no Engine run.
func TestQueryOverSealedLive(t *testing.T) {
	tr := quickstartTrace(t, 10)
	sc := newScenario(t, Config{MaxWorkers: 1})
	sc.append("open1", 0, frameChunks(t, tr, 1)[0], tr)
	var doc report.QueryDoc
	if err := json.Unmarshal(sc.query(`{}`), &doc); err != nil || doc.Traces != 0 {
		t.Fatalf("open live trace entered a fleet query: %+v (%v)", doc, err)
	}
	for _, algo := range []string{"ppo", "dqn"} {
		sc.stream("live-"+algo, tr, 3, map[string]string{"algo": algo})
	}
	if err := json.Unmarshal(sc.query(`{"group_by":["label.algo"]}`), &doc); err != nil || doc.Traces != 2 ||
		len(doc.Groups) != 2 || doc.Groups[0].TraceIDs[0] != "live-dqn" {
		t.Fatalf("sealed live query: %+v (%v), want 2 traces in 2 groups, dqn first", doc, err)
	}
}

// TestSealEvictsIncremental: sealing drops the resident incremental state
// while keeping the final document, the final counters, and a working
// (store-backed) filtered-analysis path.
func TestSealEvictsIncremental(t *testing.T) {
	s := newScenario(t, Config{MaxWorkers: 2}).s
	h := s.Handler()

	// Analyze mid-stream so the incremental state has done real work.
	tr := quickstartTrace(t, 10)
	chunks, meta := eventFrames(t, tr.Events, (len(tr.Events)+2)/3), tr.Meta
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

	// The final counters survive eviction, including the seal's last epoch
	// and its sweep: every buffered event was swept at least once.
	post, ok := s.IncrementalStats("run")
	if !ok || post.Epochs != preSeal.Epochs+1 || post.Chunks != len(chunks) {
		t.Fatalf("post-seal stats %+v ok=%v (pre-seal %+v)", post, ok, preSeal)
	}
	buffered := 0
	for _, e := range tr.Events {
		if e.Kind != trace.KindPhase && e.Kind != trace.KindOverhead {
			buffered++
		}
	}
	if post.EventsSwept < buffered {
		t.Fatalf("post-seal stats count %d events swept, fewer than the %d buffered: the seal's last sweep is missing", post.EventsSwept, buffered)
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
	if offline := offlineDoc(t, rlscope.FromDir(entry.dir), docOpts{}); !bytes.Equal(rec.Body.Bytes(), offline) {
		t.Fatalf("sealed document diverges from offline:\nlive:\n%s\noffline:\n%s", rec.Body, offline)
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
	if !bytes.Equal(rec.Body.Bytes(), offlineDoc(t, rlscope.FromDir(entry.dir), docOpts{procs: []trace.ProcID{0}})) {
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
