package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/report"
)

// FuzzRequestBodyMemo: a body the memo has seen is answered as a fresh
// server answers it. Every body goes three times to an analyze and three
// times to a query on one long-lived server — the memo keeps a body at its
// second sight, so the third is answered from it — whose memos fill, clear
// and refill across inputs, and each answer must carry a fresh server's
// status and body, the error envelope included, byte for byte. Only the
// cache header may differ.
func FuzzRequestBodyMemo(f *testing.F) {
	for _, tc := range jsonBodyCases() {
		f.Add(tc.body)
	}
	for _, body := range []string{
		``,
		`{}`,
		`{"workers":1}`,
		` {"workers":1}`,
		"{\"workers\" : 1}\n",
		"\t{ \"workers\":1 }\r\n",
		`{"Workers":1}`, // encoding/json matches keys case-insensitively
		`{"procs":null}`,
		`{"procs":[2,1,1]}`,
		`{"workers":1,"workers":2}`,
		`{"correction":true}`,
		`{"group_by":["label.algo"]}`,
		` {"group_by": ["label.algo"]} `,
		`{"group_by":["label.algo"],"group_by":["label.framework"]}`,
		`{"filter":{"label.algo":"ppo"},"group_by":["label.framework"]}`,
		`{"group_by":["label.algo"],"compare":{"baseline":{"label.algo":"dqn"}}}`,
		`{"group_by":["label.nope"],"metrics":["bogus"]}`,
	} {
		f.Add(body)
	}
	qs := quickstartDir(f, 5)
	dirs := map[string]string{
		"run-a": labeledDir(f, 6, map[string]string{"algo": "ppo", "framework": "tf"}),
		"run-b": labeledDir(f, 8, map[string]string{"algo": "dqn", "framework": "torch"}),
	}
	// One worker: an analysis document is byte-stable only at workers 1, and
	// every request clamps to the budget.
	newServer := func(tb testing.TB) *Server {
		s := NewServer(Config{MaxWorkers: 1})
		for _, id := range []string{"qs", "run-a", "run-b"} {
			dir := dirs[id]
			if id == "qs" {
				dir = qs
			}
			if _, err := s.AddDir(id, dir); err != nil {
				tb.Fatal(err)
			}
		}
		return s
	}
	memo := newServer(f)
	f.Cleanup(memo.Close)
	f.Fuzz(func(t *testing.T, body string) {
		fresh := newServer(t)
		defer fresh.Close()
		for _, path := range []string{"/v1/traces/qs/analyze", "/v1/query"} {
			want := doReq(t, fresh.Handler(), "POST", path, body)
			for i := 0; i < 3; i++ {
				got := doReq(t, memo.Handler(), "POST", path, body)
				if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("POST %s %.80q, answer %d: %d %.200s, a fresh server answers %d %.200s",
						path, body, i+1, got.Code, got.Body, want.Code, want.Body)
				}
			}
		}
	})
}

// freshQueryDoc is the document a fresh server answers body with over dirs.
func freshQueryDoc(tb testing.TB, dirs map[string]string, body string) []byte {
	tb.Helper()
	s := NewServer(Config{MaxWorkers: 2})
	defer s.Close()
	for id, dir := range dirs {
		if _, err := s.AddDir(id, dir); err != nil {
			tb.Fatal(err)
		}
	}
	return queryOK(tb, s.Handler(), body).Body.Bytes()
}

// TestWarmQueryFollowsRegistry: a warm query is one lookup only while the
// registry stands. Each of the four registry changes — AddDir, a live
// trace's creation, its seal, and the replacement of a rewritten directory's
// entry — swaps a new registry state in, and the next identical query selects afresh:
// it answers the changed fleet's document, byte-equal to a fresh server's,
// as a miss whenever the change moved the selection. Creating a live trace
// moves none — an open trace is no candidate — so that query is a hit on the
// document it already had. A repeat with no change is a hit that starts no
// Engine run.
func TestWarmQueryFollowsRegistry(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 2})
	s, store := sc.s, sc.cfg.StoreDir
	h := s.Handler()
	dirs := fleetDirs(t, s)
	const body = `{"group_by":["label.algo"],"metrics":["total_ns","transitions"]}`
	queryOK(t, h, body)
	repeat := func(after string) {
		t.Helper()
		runs := s.EngineRuns()
		rec := queryOK(t, h, body)
		if got := rec.Header().Get("X-RLScope-Cache"); got != "hit" {
			t.Fatalf("repeat after %s: cache %q, want hit", after, got)
		}
		if got := s.EngineRuns() - runs; got != 0 || rec.Header().Get("X-RLScope-Engine-Runs") != "0" {
			t.Fatalf("repeat after %s started %d engine runs", after, got)
		}
	}
	repeat("the first query")
	for _, change := range []struct {
		name   string
		mutate func()
		cache  string
	}{
		{"AddDir", func() {
			dirs["run-d"] = labeledDir(t, 9, map[string]string{"algo": "sac", "framework": "jax"})
			if _, err := s.AddDir("run-d", dirs["run-d"]); err != nil {
				t.Fatal(err)
			}
		}, "miss"},
		{"live create", func() {
			if rec := doReq(t, h, "POST", "/v1/traces", `{"id":"live-e"}`); rec.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.Code, rec.Body)
			}
		}, "hit"},
		{"seal", func() {
			streamAndSeal(t, h, "live-e", map[string]string{"algo": "dqn", "framework": "jax"})
			dirs["live-e"] = filepath.Join(store, "live-e")
		}, "miss"},
		{"rewrite", func() {
			rewriteDir(t, dirs["run-a"], 15, map[string]string{"algo": "ppo", "framework": "tf"})
			// The analyze misses, re-digests and replaces the entry.
			if rec := doReq(t, h, "POST", "/v1/traces/run-a/analyze", `{"workers":1}`); rec.Header().Get("X-RLScope-Cache") != "miss" {
				t.Fatalf("analyze of the rewritten directory: %d %s", rec.Code, rec.Header().Get("X-RLScope-Cache"))
			}
		}, "miss"},
	} {
		reg := s.reg.Load()
		change.mutate()
		if s.reg.Load() == reg {
			t.Fatalf("%s left the registry state in place", change.name)
		}
		rec := queryOK(t, h, body)
		if got := rec.Header().Get("X-RLScope-Cache"); got != change.cache {
			t.Errorf("query after %s: cache %q, want %q", change.name, got, change.cache)
		}
		if want := freshQueryDoc(t, dirs, body); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("query after %s diverges from a fresh server's:\nserver:\n%s\nfresh:\n%s", change.name, rec.Body, want)
		}
		if qp, ok := s.queryBodies.get([]byte(body)); !ok || qp.sel.Load().reg != s.reg.Load() {
			t.Errorf("query after %s did not select over the current registry state", change.name)
		}
		repeat(change.name)
	}
}

// TestWarmQueryRacesRegistry: warm queries racing registrations, a seal and
// the refresh of a rewritten directory never answer a fleet the registry did
// not hold. Every answer is the document of one of the registry's successive
// states, and once the changes are done the query answers the final fleet's,
// as a fresh server does.
func TestWarmQueryRacesRegistry(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 2})
	s, store := sc.s, sc.cfg.StoreDir
	h := s.Handler()
	dirs := fleetDirs(t, s)
	const body = `{"group_by":["label.algo"]}`
	extra := []struct{ id, dir string }{
		{"run-d", labeledDir(t, 9, map[string]string{"algo": "sac"})},
		{"run-e", labeledDir(t, 11, map[string]string{"algo": "ppo"})},
	}
	// The rewrite changes run-a's directory in place: the states before it
	// read a copy of its first content.
	rewritten := dirs["run-a"]
	dirs["run-a"] = copyDir(t, rewritten)
	// The documents of the registry's states, in order: before the changes,
	// after each registration, after the seal, and after the refresh.
	states := []map[string]string{maps.Clone(dirs)}
	for _, e := range extra {
		dirs[e.id] = e.dir
		states = append(states, maps.Clone(dirs))
	}
	queryOK(t, h, body)

	var (
		mu      sync.Mutex
		answers = map[string]int{}
		wg      sync.WaitGroup
		stop    = make(chan struct{})
	)
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := doReq(t, h, "POST", "/v1/query", body)
				if rec.Code != http.StatusOK {
					t.Errorf("racing query: %d %s", rec.Code, rec.Body)
					return
				}
				mu.Lock()
				answers[rec.Body.String()]++
				mu.Unlock()
			}
		}()
	}
	for _, e := range extra {
		if _, err := s.AddDir(e.id, e.dir); err != nil {
			t.Error(err)
		}
	}
	streamAndSeal(t, h, "live-f", map[string]string{"algo": "dqn"})
	dirs["live-f"] = filepath.Join(store, "live-f")
	states = append(states, maps.Clone(dirs))
	rewriteDir(t, rewritten, 15, map[string]string{"algo": "ppo", "framework": "tf"})
	// The analyze misses, re-digests and replaces the entry.
	if rec := mustOK(t, h, "POST", "/v1/traces/run-a/analyze", `{"workers":1}`); rec.Header().Get("X-RLScope-Cache") != "miss" {
		t.Errorf("analyze of the rewritten directory: cache %q, want miss", rec.Header().Get("X-RLScope-Cache"))
	}
	close(stop)
	wg.Wait()
	dirs["run-a"] = rewritten
	states = append(states, dirs)

	valid := map[string]bool{}
	for _, st := range states {
		valid[string(freshQueryDoc(t, st, body))] = true
	}
	for doc, n := range answers {
		if !valid[doc] {
			t.Errorf("%d racing answers are the document of no registry state:\n%s", n, doc)
		}
	}
	final := queryOK(t, h, body)
	if want := freshQueryDoc(t, dirs, body); !bytes.Equal(final.Body.Bytes(), want) {
		t.Fatalf("query after the changes diverges from a fresh server's:\nserver:\n%s\nfresh:\n%s", final.Body, want)
	}
	if got := queryOK(t, h, body).Header().Get("X-RLScope-Cache"); got != "hit" {
		t.Fatalf("repeat after the changes: cache %q, want hit", got)
	}
}

// memoFreeListing is GET /v1/traces over s's registry as it stands, rendered
// without the server: report.EncodeJSON of {"traces": [...]} over the rows,
// in registration order, that keep selects.
func memoFreeListing(tb testing.TB, s *Server, keep func(TraceInfo) bool) []byte {
	tb.Helper()
	rows := []TraceInfo{}
	for _, e := range s.reg.Load().entries {
		if row := listingRow(tb, s, e.id); keep(row) {
			rows = append(rows, row)
		}
	}
	var buf bytes.Buffer
	if err := report.EncodeJSON(&buf, struct {
		Traces []TraceInfo `json:"traces"`
	}{rows}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// listSelectionHolds reports whether the listing memo holds a selection for
// rawQuery made over the current registry state.
func listSelectionHolds(s *Server, rawQuery string) bool {
	lp, ok := s.listQueries.get([]byte(rawQuery))
	if !ok {
		return false
	}
	sel := lp.sel.Load()
	return sel != nil && sel.reg == s.reg.Load()
}

// TestWarmListingFollowsRegistry: a repeated listing is the body it was last
// answered with only while the registry stands and no trace it selects is
// open. AddDir, a live trace's creation, an append to it, its seal and the
// replacement of a rewritten directory's entry each change what the next
// identical listing returns, byte-equal to a render without the memo; a
// listing that selects no open trace keeps its selection over each new
// registry state, and one that selects an open trace keeps none, since an
// append changes the trace's row without a new state.
func TestWarmListingFollowsRegistry(t *testing.T) {
	s := newScenario(t, Config{MaxWorkers: 2}).s
	h := s.Handler()
	dirs := fleetDirs(t, s)
	listings := []struct {
		rawQuery string
		keep     func(TraceInfo) bool
	}{
		{"", func(TraceInfo) bool { return true }},
		{"label.algo=ppo", func(row TraceInfo) bool { return row.Labels["algo"] == "ppo" }},
		{"id=live-*", func(row TraceInfo) bool { return strings.HasPrefix(row.ID, "live-") }},
	}
	last := map[string][]byte{}
	check := func(after string) {
		t.Helper()
		for _, l := range listings {
			want := memoFreeListing(t, s, l.keep)
			// Three times: the memo keeps a query string at its second sight,
			// so the third answers from the selection the second made.
			for i := range 3 {
				rec := mustOK(t, h, "GET", "/v1/traces?"+l.rawQuery, "")
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("after %s, listing %q answer %d differs from a render without the memo:\ngot:\n%s\nwant:\n%s", after, l.rawQuery, i+1, rec.Body, want)
				}
			}
			open := bytes.Contains(want, []byte(`"state": "open"`))
			if holds := listSelectionHolds(s, l.rawQuery); holds == open {
				t.Errorf("after %s, listing %q: selection held %v, selecting an open trace %v", after, l.rawQuery, holds, open)
			}
			last[l.rawQuery] = want
		}
	}
	check("registration")
	chunks, meta := quickstartFrames(t, 10, 3)
	meta.Labels = map[string]string{"algo": "ppo"}
	for _, change := range []struct {
		name   string
		mutate func()
		swap   bool
		moves  []string // the listings whose body the change moves
	}{
		{"AddDir", func() {
			if _, err := s.AddDir("run-d", labeledDir(t, 9, map[string]string{"algo": "ppo"})); err != nil {
				t.Fatal(err)
			}
		}, true, []string{"", "label.algo=ppo"}},
		{"live create", func() {
			if rec := doReq(t, h, "POST", "/v1/traces", `{"id":"live-e"}`); rec.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.Code, rec.Body)
			}
		}, true, []string{"", "id=live-*"}},
		{"append", func() {
			mustOK(t, h, "POST", "/v1/traces/live-e/chunks?seq=0", string(chunks[0]))
		}, false, []string{"", "id=live-*"}},
		{"seal", func() {
			for seq := 1; seq < len(chunks); seq++ {
				mustOK(t, h, "POST", fmt.Sprintf("/v1/traces/live-e/chunks?seq=%d", seq), string(chunks[seq]))
			}
			metaBody, err := json.Marshal(meta)
			if err != nil {
				t.Fatal(err)
			}
			mustOK(t, h, "POST", "/v1/traces/live-e/seal", string(metaBody))
		}, true, []string{"", "label.algo=ppo", "id=live-*"}},
		{"rewrite", func() {
			rewriteDir(t, dirs["run-a"], 15, map[string]string{"algo": "ppo", "framework": "jax"})
			// The analyze misses, re-digests and replaces the entry.
			mustOK(t, h, "POST", "/v1/traces/run-a/analyze", `{"workers":1}`)
		}, true, []string{"", "label.algo=ppo"}},
	} {
		reg := s.reg.Load()
		change.mutate()
		if swapped := s.reg.Load() != reg; swapped != change.swap {
			t.Fatalf("%s swapped a new registry state in: %v, want %v", change.name, swapped, change.swap)
		}
		before := maps.Clone(last)
		check(change.name)
		for _, l := range listings {
			if moved := !bytes.Equal(before[l.rawQuery], last[l.rawQuery]); moved != slices.Contains(change.moves, l.rawQuery) {
				t.Errorf("%s moved listing %q: %v", change.name, l.rawQuery, moved)
			}
		}
	}
}

// TestWarmListingRacesRegistry: warm listings racing registrations, a
// streamed trace's creation, appends and seal, and the refresh of a rewritten
// directory never answer a registry that did not exist. Every answer is the
// listing of one of the registry's successive states — an open trace is never
// selected by a label filter — and once the changes are done the listing
// answers the final registry's, as a fresh server does, from a selection over
// the final state.
func TestWarmListingRacesRegistry(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 2})
	s, store := sc.s, sc.cfg.StoreDir
	h := s.Handler()
	dirs := fleetDirs(t, s)
	const target = "/v1/traces?label.algo=ppo"
	var order []string
	for _, e := range s.reg.Load().entries {
		order = append(order, e.id)
	}
	// The rewrite changes run-a's directory in place: the states before it
	// read a copy of its first content.
	rewritten := dirs["run-a"]
	dirs["run-a"] = copyDir(t, rewritten)
	extra := []struct{ id, dir string }{
		{"run-d", labeledDir(t, 9, map[string]string{"algo": "sac"})},
		{"run-e", labeledDir(t, 11, map[string]string{"algo": "ppo"})},
	}
	mustOK(t, h, "GET", target, "")

	var (
		mu      sync.Mutex
		answers = map[string]int{}
		wg      sync.WaitGroup
		stop    = make(chan struct{})
	)
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := doReq(t, h, "GET", target, "")
				if rec.Code != http.StatusOK {
					t.Errorf("racing listing: %d %s", rec.Code, rec.Body)
					return
				}
				mu.Lock()
				answers[rec.Body.String()]++
				mu.Unlock()
			}
		}()
	}
	for _, e := range extra {
		if _, err := s.AddDir(e.id, e.dir); err != nil {
			t.Error(err)
		}
		dirs[e.id] = e.dir
		order = append(order, e.id)
	}
	streamAndSeal(t, h, "live-f", map[string]string{"algo": "ppo"})
	rewriteDir(t, rewritten, 15, map[string]string{"algo": "ppo", "framework": "jax"})
	// The analyze misses, re-digests and replaces the entry.
	mustOK(t, h, "POST", "/v1/traces/run-a/analyze", `{"workers":1}`)
	close(stop)
	wg.Wait()
	dirs["live-f"] = filepath.Join(store, "live-f")
	order = append(order, "live-f")

	// The registry's states are its prefixes in registration order, and the
	// whole of it after the refresh; a fresh server registering the same
	// directories in the same order renders each.
	listing := func(dirs map[string]string, ids []string) []byte {
		fresh := NewServer(Config{MaxWorkers: 1})
		defer fresh.Close()
		for _, id := range ids {
			if _, err := fresh.AddDir(id, dirs[id]); err != nil {
				t.Fatal(err)
			}
		}
		return mustOK(t, fresh.Handler(), "GET", target, "").Body.Bytes()
	}
	valid := map[string]bool{}
	for n := len(order) - len(extra) - 1; n <= len(order); n++ {
		valid[string(listing(dirs, order[:n]))] = true
	}
	dirs["run-a"] = rewritten
	final := listing(dirs, order)
	valid[string(final)] = true
	for body, n := range answers {
		if !valid[body] {
			t.Errorf("%d racing answers are the listing of no registry state:\n%s", n, body)
		}
	}
	for range 2 {
		if got := mustOK(t, h, "GET", target, "").Body.Bytes(); !bytes.Equal(got, final) {
			t.Fatalf("listing after the changes diverges from a fresh server's:\nserver:\n%s\nfresh:\n%s", got, final)
		}
	}
	if !listSelectionHolds(s, "label.algo=ppo") {
		t.Fatal("the listing after the changes holds no selection over the final state")
	}
}
