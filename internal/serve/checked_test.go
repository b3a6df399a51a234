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
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	rlscope "repro"
	"repro/internal/fleet"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// writeTraceDir writes tr into a fresh directory in chunks of chunkBytes.
func writeTraceDir(tb testing.TB, tr *trace.Trace, chunkBytes int) string {
	tb.Helper()
	dir := tb.TempDir()
	w, err := trace.NewWriter(dir, chunkBytes)
	if err != nil {
		tb.Fatal(err)
	}
	w.Append(tr.Events...)
	if err := w.Close(tr.Meta); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// copyDir copies every file of src into a fresh directory.
func copyDir(tb testing.TB, src string) string {
	tb.Helper()
	dst := tb.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		tb.Fatal(err)
	}
	return dst
}

// readFile is os.ReadFile of dir/name, failing tb.
func readFile(tb testing.TB, dir, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// dirChange is one change to a registered directory: files it writes and
// files it removes, by name.
type dirChange struct {
	name   string
	write  map[string][]byte
	remove []string
}

func (c dirChange) apply(dir string) error {
	for name, b := range c.write {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	for _, name := range c.remove {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// TestRunChecksWhatItReads: a run stores what it computed under its entry's
// digest only when every file it read is the one that digest names. A
// registered two-process directory gets one change at a time — its metadata,
// each sidecar, each chunk rewritten, a chunk added, a chunk removed — made
// before the first miss, or by the first run itself (preRun), and then a
// filtered analyze, an unfiltered one and a query, in two orders. After each
// request, every stored key's digest names the content its document was
// computed from, rendered offline from a copy of that content; the entry is
// refreshed exactly when the request ran the Engine and the run read a
// changed file or saw a changed listing — a filtered run reads the
// metadata, every sidecar and only the chunks of its processes; and every
// answer is the offline Engine's over the directory as it then is.
func TestRunChecksWhatItReads(t *testing.T) {
	const query = `{"group_by":["workload"]}`
	filter := []trace.ProcID{1}
	base := twoProcTrace(t, 12)
	orig := writeTraceDir(t, base, 1<<10)
	snap, err := trace.ReadSnapshot(orig)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenDir(orig)
	if err != nil {
		t.Fatal(err)
	}
	n := r.NumChunks()
	chunkNames := make([]string, n)
	skipped := 0 // chunks the filtered run never reads
	for i := range n {
		chunkNames[i] = r.ChunkName(i)
		if _, ok := snap.Indexes[i].Procs[filter[0]]; !ok {
			skipped++
		}
	}
	if n < 3 || skipped == 0 || skipped == n {
		t.Fatalf("%d chunks, %d without process %d: the filtered run must skip some and read some", n, skipped, filter[0])
	}
	sidecar := func(chunk string) string { return strings.TrimSuffix(chunk, ".rlstrace") + ".rlsidx" }

	// alt is the same run with names of the same length changed: every
	// chunk's bytes differ, its sidecar's do not, and the documents do.
	alt := &trace.Trace{Meta: base.Meta, Events: slices.Clone(base.Events)}
	alt.Meta.Workload = "two-prok"
	renames := map[string]string{"inference": "inferencE", "simulation": "simulatioN", "dense": "densE", "env.step": "env.steP"}
	for i := range alt.Events {
		if to, ok := renames[alt.Events[i].Name]; ok {
			alt.Events[i].Name = to
		}
	}
	altDir := writeTraceDir(t, alt, 1<<10)

	var changes []dirChange
	changes = append(changes, dirChange{name: "meta.json", write: map[string][]byte{"meta.json": readFile(t, altDir, "meta.json")}})
	for i, name := range chunkNames {
		// The sidecar's legacy JSON form: other bytes, the same index.
		js, err := json.Marshal(&snap.Indexes[i])
		if err != nil {
			t.Fatal(err)
		}
		changes = append(changes, dirChange{name: sidecar(name), write: map[string][]byte{sidecar(name): js}})
		if !bytes.Equal(readFile(t, orig, sidecar(name)), readFile(t, altDir, sidecar(name))) {
			t.Fatalf("the renamed run's %s differs", sidecar(name))
		}
		b := readFile(t, altDir, name)
		if bytes.Equal(b, readFile(t, orig, name)) {
			t.Fatalf("the renamed run's %s is the original's", name)
		}
		changes = append(changes, dirChange{name: name, write: map[string][]byte{name: b}})
	}
	// An added chunk: the last one's events again, after the run's end.
	last, err := r.ReadChunk(n-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	shift := vclock.Duration(snap.Indexes[n-1].Procs[last[0].Proc].MaxEnd) + vclock.Millisecond
	for i := range last {
		last[i].Start, last[i].End = last[i].Start.Add(shift), last[i].End.Add(shift)
	}
	frame, ix, err := trace.EncodeEvents(last)
	if err != nil {
		t.Fatal(err)
	}
	side, err := ix.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	added := fmt.Sprintf("chunk_%06d.rlstrace", n)
	changes = append(changes,
		dirChange{name: "added chunk", write: map[string][]byte{added: frame, sidecar(added): side}},
		dirChange{name: "removed chunk", remove: []string{chunkNames[n-1], sidecar(chunkNames[n-1])}})

	// copies holds a directory of each content the test makes, by digest.
	copies := map[string]string{snap.Digest: orig}
	for _, c := range changes {
		dir := copyDir(t, orig)
		if err := c.apply(dir); err != nil {
			t.Fatal(err)
		}
		digest, err := trace.DirDigest(dir)
		if err != nil {
			t.Fatal(err)
		}
		copies[digest] = dir
	}
	if len(copies) != len(changes)+1 {
		t.Fatalf("%d changes made %d distinct contents", len(changes), len(copies)-1)
	}
	// A query document's key hashes the digests it was selected over:
	// queries maps the key of the document over each content to the content.
	plan, err := fleet.Compile(parseQuery(t, query))
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{}
	for digest, dir := range copies {
		snap, err := trace.ReadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		queries[queryKey(plan.ContentKey([]fleet.Trace{{ID: "tr", Meta: snap.Meta, Digest: digest}}))] = dir
	}

	// renders caches the offline renders, by what they render over what.
	renders := map[string][]byte{}
	render := func(kind, dir string, procs []trace.ProcID) []byte {
		t.Helper()
		key := fmt.Sprint(kind, dir, procs)
		if b, ok := renders[key]; ok {
			return b
		}
		var b []byte
		switch kind {
		case "doc":
			b = offlineDoc(t, rlscope.FromDir(dir), docOpts{full: true, procs: procs})
		case "set":
			rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := report.EncodeResultSet(&buf, rep.Results); err != nil {
				t.Fatal(err)
			}
			b = buf.Bytes()
		case "query":
			b = offlineQueryDoc(t, parseQuery(t, query), map[string]string{"tr": dir})
		}
		renders[key] = b
		return b
	}
	// selectedQuery is the query document selected over content sel, with
	// the results the offline Engine computes over content dir: what a query
	// whose run found the directory changed since the selection answers.
	selectedQuery := func(sel, dir string) []byte {
		t.Helper()
		if sel == dir {
			return render("query", dir, nil)
		}
		snap, err := trace.ReadSnapshot(sel)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := plan.Execute(context.Background(), []fleet.Trace{{ID: "tr", Meta: snap.Meta}}, func(ctx context.Context, _ fleet.Trace) (map[trace.ProcID]*overlap.Result, error) {
			rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(ctx, rlscope.FromDir(dir))
			if err != nil {
				return nil, err
			}
			return rep.Results, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	hexDigest := regexp.MustCompile(`[0-9a-f]{64}`)
	// checkStored: every stored key's digest names content whose offline
	// render is the stored body.
	checkStored := func(s *Server, what string) {
		t.Helper()
		s.store.lru.mu.Lock()
		keys := make([]string, 0, len(s.store.lru.items))
		for k := range s.store.lru.items {
			keys = append(keys, k)
		}
		s.store.lru.mu.Unlock()
		for _, key := range keys {
			dir, ok := queries[key]
			if !ok {
				dir, ok = copies[hexDigest.FindString(key)]
			}
			if !ok {
				t.Fatalf("%s: key %.60s… names a digest of no content the directory held", what, key)
			}
			body, _ := s.store.lru.get(key)
			var want []byte
			switch {
			case strings.HasPrefix(key, resultSetPrefix):
				want = render("set", dir, nil)
			case strings.HasPrefix(key, queryKey("")):
				want = render("query", dir, nil)
			default:
				var procs []trace.ProcID
				if _, p, _ := strings.Cut(key, "|p="); p != "" {
					procs = filter
				}
				want = render("doc", dir, procs)
			}
			if !bytes.Equal(body.b, want) {
				t.Fatalf("%s: the body stored under %.60s… is not the content's that digest names", what, key)
			}
		}
	}
	// reads lists what a run over content dir reads besides the listing:
	// the metadata, every sidecar, and the chunks holding one of procs (all
	// of them when procs is empty).
	reads := func(dir string, procs []trace.ProcID) []string {
		t.Helper()
		snap, err := trace.ReadSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := trace.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := []string{"meta.json"}
		for i := range rd.NumChunks() {
			name := rd.ChunkName(i)
			files = append(files, sidecar(name))
			if len(procs) == 0 || slices.ContainsFunc(procs, func(p trace.ProcID) bool { _, ok := snap.Indexes[i].Procs[p]; return ok }) {
				files = append(files, name)
			}
		}
		return files
	}
	// readsChanged: whether a run over content from, reading dir as it is,
	// sees a changed listing or reads a changed file.
	readsChanged := func(from, dir string, procs []trace.ProcID) bool {
		t.Helper()
		list := func(d string) []string {
			es, err := os.ReadDir(d)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range es {
				names = append(names, e.Name())
			}
			return names
		}
		if !slices.Equal(list(from), list(dir)) {
			return true
		}
		return slices.ContainsFunc(reads(from, procs), func(name string) bool {
			return !bytes.Equal(readFile(t, from, name), readFile(t, dir, name))
		})
	}

	// scenario makes change c before the first miss or by its run, then
	// sends order's requests, on a fresh server over a fresh copy.
	scenario := func(c dirChange, inRun bool, order []string) {
		what := fmt.Sprintf("%s changed %s, %v", c.name, map[bool]string{false: "before the miss", true: "by the run"}[inRun], order)
		dir := copyDir(t, orig)
		s := newScenario(t, Config{MaxWorkers: 1}).s
		if _, err := s.AddDir("tr", dir); err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		change := func() {
			if err := c.apply(dir); err != nil {
				t.Error(err)
			}
		}
		if inRun {
			s.preRun = func(context.Context, string) { once.Do(change) }
		} else {
			change()
		}
		h := s.Handler()
		// Warm reads of the registry race each refresh.
		stop := make(chan struct{})
		var readers sync.WaitGroup
		readers.Add(1)
		defer func() {
			close(stop)
			readers.Wait()
		}()
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, target := range []string{"/v1/traces", "/v1/traces/tr/summary"} {
					if rec := doReq(t, h, "GET", target, ""); rec.Code != http.StatusOK {
						t.Errorf("%s: warm GET %s: %d %s", what, target, rec.Code, rec.Body)
					}
				}
			}
		}()
		for _, op := range order {
			before := s.lookup("tr")
			var procs []trace.ProcID
			var rec *httptest.ResponseRecorder
			var stored bool
			if op == "query" {
				_, stored = s.store.get(resultSetKey(before.info.Digest))
				rec = mustOK(t, h, "POST", "/v1/query", query)
			} else {
				body := `{}`
				if op == "filtered" {
					procs, body = filter, `{"procs":[1]}`
				}
				_, stored = s.store.get(cacheKey(before.info.Digest, s.canonicalize(AnalyzeRequest{Procs: procs})))
				rec = mustOK(t, h, "POST", "/v1/traces/tr/analyze", body)
			}
			if t.Failed() {
				t.FailNow()
			}
			digest, err := trace.DirDigest(dir)
			if err != nil {
				t.Fatal(err)
			}
			now := copies[digest]
			var want []byte
			if op == "query" {
				// Selected over the entry the request found.
				want = selectedQuery(copies[before.info.Digest], now)
			} else {
				want = render("doc", now, procs)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: the %s answered other than the offline Engine over the directory:\n%s\nwant:\n%s", what, op, rec.Body, want)
			}
			from := copies[before.info.Digest]
			// A query's run is the unfiltered default one.
			wantRefresh := !stored && readsChanged(from, dir, procs)
			if refreshed := s.lookup("tr") != before; refreshed != wantRefresh {
				t.Fatalf("%s: the %s refreshed the entry: %v, want %v", what, op, refreshed, wantRefresh)
			}
			checkStored(s, what+" "+op)
		}
	}
	for _, c := range changes {
		for _, inRun := range []bool{false, true} {
			for _, order := range [][]string{{"filtered", "unfiltered", "query"}, {"query", "filtered", "unfiltered"}} {
				scenario(c, inRun, order)
			}
		}
	}

	// A directory that changes under both runs of a miss: the first run's
	// change refreshes the entry, the second's fails the request with
	// analysis_failed naming the trace and the file, never the path, and
	// nothing is stored.
	dir := copyDir(t, orig)
	s := newScenario(t, Config{MaxWorkers: 1}).s
	if _, err := s.AddDir("tr", dir); err != nil {
		t.Fatal(err)
	}
	metas := [][]byte{readFile(t, altDir, "meta.json"), readFile(t, orig, "meta.json")}
	runs := 0
	s.preRun = func(context.Context, string) {
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), metas[runs%2], 0o644); err != nil {
			t.Error(err)
		}
		runs++
	}
	rec := doReq(t, s.Handler(), "POST", "/v1/traces/tr/analyze", `{}`)
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Error.Code != ErrCodeAnalysisFailed {
		t.Fatalf("a directory changed under both runs: %d %s, want 500 %s", rec.Code, rec.Body, ErrCodeAnalysisFailed)
	}
	if msg := env.Error.Message; !strings.Contains(msg, `trace "tr"`) || !strings.Contains(msg, "meta.json") || strings.Contains(msg, dir) {
		t.Fatalf("the refusal says %q: want the trace id and the file, not the path", msg)
	}
	if runs != 2 || s.EngineRuns() != 2 {
		t.Fatalf("%d runs began, %d Engine runs counted; want 2 of each", runs, s.EngineRuns())
	}
	if entries := s.store.lru.stats().Entries; entries != 0 {
		t.Fatalf("a refused run stored %d entries", entries)
	}
}
