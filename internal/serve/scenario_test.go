package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	rlscope "repro"
	"repro/internal/analysis"
	"repro/internal/calib"
	"repro/internal/cuda"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// The scenario driver: a server, operations against it, and a model each
// answer is checked against as it arrives. The model is what the offline
// tools print over the same bytes (offlineDoc, offlineQueryDoc), AddDir's
// snapshot of each sealed directory, and DESIGN.md §9's code table. It keeps
// the report store's keys, so it knows each hit and every Engine run. The
// lifecycle, ingest and listing tests are fixed sequences of its operations;
// TestScenarios, TestScenariosConcurrent and FuzzHandler walk them seeded,
// from several goroutines, and as the fuzz engine picks.

// Model states besides a streamed trace's StateOpen and StateSealed.
const (
	stateRegistered = "registered" // by AddDir
	stateGone       = "gone"       // streamed in before a restart
)

// traceModel is what the model knows of one id.
type traceModel struct {
	state  string
	src    *trace.Trace // the run a streamed trace is cut from
	next   int          // src.Events[:next] have landed
	frames [][]byte     // the landed frames, by seq
	dir    string
	entry  *traceEntry // AddDir's snapshot of dir, once sealed or registered
	slot   string      // what an open trace's one-slot document cache holds
}

// scenario is one server and its model. newScenario is the one way a test
// in this package builds a Server.
type scenario struct {
	tb   testing.TB
	cfg  Config
	s    *Server
	h    http.Handler
	pick func(n int) int // a walk's next choice in [0, n)
	// storeErr is the status creating a trace answers when the store cannot
	// take it: 403 without one, 500 where it is a regular file.
	storeErr int

	traces  map[string]*traceModel
	order   []string          // registration order, the listing's
	runs    int64             // the Engine runs the server has started
	stored  map[string]bool   // the report-store keys filled ("q|…" in memory only)
	inStore map[string]bool   // the ids with a trace-store directory
	renders map[string][]byte // model renders, by what they render
	trail   []string          // answers since answered: codes, or a 2xx's cache header
	what    string            // the request being checked

	ids, fixtures []string // what a walk picks ids and AddDir directories from
	// broken holds the digests of registered directories no Engine run
	// completes over: a chunk of each no longer decodes.
	broken map[string]bool
	// faults, under a fault schedule, is the file system the server's
	// stores write through.
	faults *faultFS
	// own marks one of several walks on one server: it cannot know the
	// server's Engine runs. driven: a request has gone through send, so
	// the runs are checked before each request and at the end.
	own, driven bool
}

// noStore, as newScenario's StoreDir, is a server without a trace store; an
// empty StoreDir gets a fresh one.
const noStore = "-"

var (
	codesOnce sync.Once
	codes     map[string]map[int]bool // documentedCodes, read once
)

func newScenario(tb testing.TB, cfg Config) *scenario {
	tb.Helper()
	codesOnce.Do(func() { codes = documentedCodes(tb) })
	sc := &scenario{tb: tb, pick: rand.New(rand.NewSource(1)).Intn, traces: map[string]*traceModel{},
		stored: map[string]bool{}, inStore: map[string]bool{}, renders: map[string][]byte{}, broken: map[string]bool{}}
	if st, err := os.Stat(cfg.StoreDir); err == nil && !st.IsDir() {
		sc.storeErr = http.StatusInternalServerError
	}
	switch cfg.StoreDir {
	case "":
		cfg.StoreDir = tb.TempDir()
	case noStore:
		cfg.StoreDir, sc.storeErr = "", http.StatusForbidden
	}
	sc.cfg, sc.s = cfg, NewServer(cfg)
	sc.h = sc.s.Handler()
	tb.Cleanup(func() {
		sc.checkRuns()
		sc.s.Close()
	})
	return sc
}

// idRule is DESIGN.md §9's: [A-Za-z0-9][A-Za-z0-9._-]*, no "..", at most
// 255 bytes.
var idRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,254}$`)

func validID(id string) bool { return idRule.MatchString(id) && !strings.Contains(id, "..") }

// badIDs break the rule: a leading dot, a traversal, one byte too many.
var badIDs = []string{".dot", "a..b", strings.Repeat("a", 256)}

// registered is id's model while a server knows it, else nil.
func (sc *scenario) registered(id string) *traceModel {
	if m := sc.traces[id]; m != nil && m.state != stateGone {
		return m
	}
	return nil
}

func (sc *scenario) checkRuns() {
	if runs := sc.s.EngineRuns(); sc.driven && !sc.own && runs != sc.runs {
		sc.tb.Errorf("after %.200s: %d Engine runs, the model says %d", sc.what, runs, sc.runs)
	}
}

// send serves req and checks the answer's shape (serve). Under a fault
// schedule, a request the fault refused is sent once more, as a client
// retries it, and the model checks what that answers.
func (sc *scenario) send(req *http.Request, body string) (*httptest.ResponseRecorder, string) {
	sc.tb.Helper()
	sc.checkRuns()
	sc.what, sc.driven = req.Method+" "+req.URL.String()+" "+body, true
	again := sc.faults.replayable(req)
	rec, code := sc.serve(req)
	if again != nil && sc.faults.refused(rec.Code) {
		rec, code = sc.serve(again())
	}
	return rec, code
}

// serve answers req and checks the answer's shape: a 2xx, or the error
// envelope, with no cache header, a code §9 documents for its status, and no
// mention of where the trace store or the report store lives.
func (sc *scenario) serve(req *http.Request) (*httptest.ResponseRecorder, string) {
	sc.tb.Helper()
	rec := httptest.NewRecorder()
	sc.h.ServeHTTP(rec, req)
	code := ""
	if rec.Code >= 300 {
		dirs := []string{sc.cfg.StoreDir}
		if sc.cfg.Reports != nil {
			dirs = append(dirs, sc.cfg.Reports.dir)
		}
		for _, dir := range dirs {
			if dir != "" && bytes.Contains(rec.Body.Bytes(), []byte(dir)) {
				sc.tb.Fatalf("%.200s: %d %s quotes the store path %s", sc.what, rec.Code, rec.Body, dir)
			}
		}
		code = checkAnswer(sc.tb, codes, sc.what, rec)
		if c := rec.Header().Get("X-Rlscope-Cache"); c != "" {
			sc.tb.Fatalf("%.200s: %d %s with cache header %q", sc.what, rec.Code, code, c)
		}
	}
	if code == "" {
		sc.trail = append(sc.trail, rec.Header().Get("X-Rlscope-Cache"))
	} else {
		sc.trail = append(sc.trail, code)
	}
	return rec, code
}

// answered fails unless the answers since its last call were want: each an
// error code, or a 2xx's X-Rlscope-Cache value ("" where it sends none).
// The model has checked each already; a fixed sequence says it once more.
func (sc *scenario) answered(want ...string) {
	sc.tb.Helper()
	if !slices.Equal(sc.trail, want) {
		sc.tb.Fatalf("answers %q, want %q", sc.trail, want)
	}
	sc.trail = nil
}

func (sc *scenario) do(method, target, body string) (*httptest.ResponseRecorder, string) {
	sc.tb.Helper()
	return sc.send(httptest.NewRequest(method, target, strings.NewReader(body)), body)
}

// answer is what the model says a request gets: a status and envelope code,
// or a 2xx with exactly body (nil: unchecked) and the X-Rlscope-* headers.
type answer struct {
	status int
	code   string
	body   []byte
	hdr    map[string]string
}

func refused(status int, code string) answer { return answer{status: status, code: code} }

// encoded is the 2xx whose body writeJSON encodes from v.
func (sc *scenario) encoded(status int, v any) answer {
	var buf bytes.Buffer
	if err := report.EncodeJSON(&buf, v); err != nil {
		sc.tb.Fatal(err)
	}
	return answer{status: status, body: buf.Bytes()}
}

func (sc *scenario) check(rec *httptest.ResponseRecorder, code string, want answer) {
	sc.tb.Helper()
	if rec.Code != want.status || code != want.code || (want.body != nil && !bytes.Equal(rec.Body.Bytes(), want.body)) {
		sc.tb.Fatalf("%.200s: answered %d %q\n%.3000s\nthe model says %d %q\n%.3000s", sc.what, rec.Code, code, rec.Body, want.status, want.code, want.body)
	}
	for k, v := range want.hdr {
		if got := rec.Header().Get(k); got != v {
			sc.tb.Fatalf("%.200s: %s %q, the model says %q", sc.what, k, got, v)
		}
	}
}

// decodeBody is §9's rule for a JSON body: one value, no unknown field,
// nothing but white space after it, and empty only where emptyOK.
func decodeBody(body string, v any, emptyOK bool) error {
	if emptyOK && strings.TrimSpace(body) == "" {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after the value")
	}
	return nil
}

// chunk is an append body: a frame cut from a run, with the offset its
// last event leaves the run at, or bytes no reader decodes (end < 0).
type chunk struct {
	b     []byte
	end   int
	ctype string
}

// cut is src's next frame from event from on: 1 to 200 events, in v1 or v2.
func (sc *scenario) cut(src *trace.Trace, from int) chunk {
	end := min(from+1+sc.pick(200), len(src.Events))
	b, _, err := trace.EncodeEventsFormat(src.Events[from:end], []trace.Format{trace.FormatV1, trace.FormatV2}[sc.pick(2)])
	if err != nil {
		sc.tb.Fatal(err)
	}
	return chunk{b: b, end: end}
}

// multipartChunk is frame beside a sidecar in the multipart shape that once
// carried a client's index: bytes no reader decodes.
func multipartChunk(tb testing.TB, frame []byte) chunk {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range []struct {
		name string
		b    []byte
	}{{"chunk.rlstrace", frame}, {"chunk.rlsidx", []byte(`{"version":1}`)}} {
		w, err := mw.CreateFormFile(part.name, part.name)
		if err != nil {
			tb.Fatal(err)
		}
		w.Write(part.b)
	}
	mw.Close()
	return chunk{b: body.Bytes(), end: -1, ctype: mw.FormDataContentType()}
}

var (
	sourcesOnce sync.Once
	sources     []*trace.Trace
)

// source picks the run a new streamed trace is cut from: a trainer with a
// simulator it forks, or the quickstart. Shared, so never modified.
func (sc *scenario) source() *trace.Trace {
	sourcesOnce.Do(func() { sources = []*trace.Trace{twoProcTrace(sc.tb, 60), quickstartTrace(sc.tb, 20)} })
	return sources[sc.pick(len(sources))]
}

// refusal is why the model's trace for id takes no chunk or seal, or why
// ingest cannot open it; the zero answer when it is open, or opens.
func (sc *scenario) refusal(id string) answer {
	switch m := sc.traces[id]; {
	case m != nil && m.state == StateSealed:
		return refused(http.StatusConflict, ErrCodeTraceSealed)
	case m != nil && m.state == stateRegistered:
		return refused(http.StatusConflict, ErrCodeTraceExists)
	case m != nil && m.state == StateOpen:
	case !validID(id):
		return refused(http.StatusBadRequest, ErrCodeInvalidTraceID)
	case sc.storeErr == http.StatusForbidden:
		return refused(sc.storeErr, ErrCodeIngestDisabled)
	case sc.storeErr != 0:
		return refused(sc.storeErr, ErrCodeStoreFailed)
	case m != nil && (len(m.frames) > 0 || m.entry != nil):
		// Gone, but its directory still holds the files.
		return refused(http.StatusConflict, ErrCodeTraceExists)
	}
	return answer{}
}

// open models a new open trace cut from src.
func (sc *scenario) open(id string, src *trace.Trace) *traceModel {
	m := &traceModel{state: StateOpen, src: src, dir: filepath.Join(sc.cfg.StoreDir, id)}
	sc.traces[id], sc.inStore[id] = m, true
	sc.order = append(sc.order, id)
	return m
}

// openSummary is an open trace's summary over its landed events.
func (sc *scenario) openSummary(id string, m *traceModel) *TraceSummary {
	procs, phases := map[trace.ProcID]*ProcSummary{}, map[string]bool{}
	for _, e := range m.src.Events[:m.next] {
		p := procs[e.Proc]
		if p == nil {
			p = &ProcSummary{Proc: e.Proc, Name: report.ProcName(trace.Meta{}, e.Proc), MinStart: int64(e.Start), MaxEnd: int64(e.End)}
			procs[e.Proc] = p
		}
		p.Events++
		p.MinStart, p.MaxEnd = min(p.MinStart, int64(e.Start)), max(p.MaxEnd, int64(e.End))
		if e.Kind == trace.KindPhase {
			phases[e.Name] = true
		}
	}
	sum := &TraceSummary{TraceInfo: TraceInfo{ID: id, Chunks: len(m.frames), Events: m.next, Procs: len(procs), State: StateOpen},
		Tree: report.TreeJSON(trace.Meta{}), Phases: slices.Sorted(maps.Keys(phases))}
	for _, p := range slices.Sorted(maps.Keys(procs)) {
		sum.Processes = append(sum.Processes, *procs[p])
	}
	if len(m.frames) > 0 {
		var err error
		if sum.Digest, err = trace.DirDigest(m.dir); err != nil {
			sc.tb.Fatal(err)
		}
	}
	return sum
}

// row is id's listing row and the metadata fleet filters read.
func (sc *scenario) row(id string) (TraceInfo, trace.Meta) {
	if m := sc.traces[id]; m.entry != nil {
		return m.entry.info, m.entry.meta
	}
	return sc.openSummary(id, sc.traces[id]).TraceInfo, trace.Meta{}
}

// nothingStored fails if a refused request left anything in the trace
// store: every entry is a trace streamed in. An own walk reads only id's.
func (sc *scenario) nothingStored(id string) {
	sc.tb.Helper()
	names := []string{id}
	if entries, err := os.ReadDir(sc.cfg.StoreDir); err == nil && !sc.own {
		names = names[:0]
		for _, e := range entries {
			names = append(names, e.Name())
		}
	}
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(sc.cfg.StoreDir, name)); sc.storeErr == 0 && err == nil && !sc.inStore[name] {
			sc.tb.Fatalf("%.200s: a refused request left %q in the store", sc.what, name)
		}
	}
}

// create is POST /v1/traces.
func (sc *scenario) create(body string) {
	sc.tb.Helper()
	rec, code := sc.do("POST", "/v1/traces", body)
	var req CreateTraceRequest
	if decodeBody(body, &req, false) != nil {
		sc.check(rec, code, refused(http.StatusBadRequest, ErrCodeBadRequest))
		return
	}
	want, m := sc.refusal(req.ID), sc.registered(req.ID)
	switch {
	case want.status != 0:
		sc.nothingStored(req.ID)
	case m != nil:
		want = sc.encoded(http.StatusOK, sc.openSummary(req.ID, m).TraceInfo)
	default:
		want = sc.encoded(http.StatusCreated, sc.openSummary(req.ID, sc.open(req.ID, sc.source())).TraceInfo)
	}
	sc.check(rec, code, want)
}

// appendNext appends the next frame of id's run at its next seq, or, the
// run all in, its last frame again.
func (sc *scenario) appendNext(id string) {
	sc.tb.Helper()
	m, src, from := sc.registered(id), sc.source(), 0
	if m != nil && m.src != nil {
		if src, from = m.src, m.next; from == len(src.Events) {
			sc.append(id, len(m.frames)-1, chunk{b: m.frames[len(m.frames)-1]}, src)
			return
		}
	}
	seq := 0
	if m != nil {
		seq = len(m.frames)
	}
	sc.append(id, seq, sc.cut(src, from), src)
}

// append is POST /v1/traces/{id}/chunks?seq=N, no seq when seq < 0. A trace
// it opens is cut from src.
func (sc *scenario) append(id string, seq int, c chunk, src *trace.Trace) {
	sc.tb.Helper()
	target := "/v1/traces/" + id + "/chunks"
	if seq >= 0 {
		target += fmt.Sprintf("?seq=%d", seq)
	}
	req := httptest.NewRequest("POST", target, bytes.NewReader(c.b))
	if c.ctype != "" {
		req.Header.Set("Content-Type", c.ctype)
	}
	rec, code := sc.send(req, fmt.Sprintf("(%d bytes)", len(c.b)))
	// In the handler's order: the seq, what the entry alone refuses, the
	// frame, the id and the store, then the sink's sequence check.
	m, want := sc.registered(id), sc.refusal(id)
	switch {
	case seq < 0:
		want = refused(http.StatusBadRequest, ErrCodeBadRequest)
	case m != nil && want.status != 0:
	case m != nil && seq > len(m.frames):
		want = refused(http.StatusConflict, ErrCodeOutOfOrderSeq)
	case c.end < 0:
		want = refused(http.StatusBadRequest, ErrCodeBadChunk)
	case want.status != 0:
	default:
		if m == nil {
			m = sc.open(id, src)
		}
		dup := seq < len(m.frames)
		switch {
		case seq > len(m.frames):
			want = refused(http.StatusConflict, ErrCodeOutOfOrderSeq)
		case dup && !bytes.Equal(m.frames[seq], c.b):
			want = refused(http.StatusConflict, ErrCodeChunkConflict)
		default:
			if !dup {
				m.frames, m.next = append(m.frames, c.b), c.end
			}
			info := sc.openSummary(id, m).TraceInfo
			want = sc.encoded(http.StatusOK, AppendResponse{ID: id, Seq: seq, Chunks: info.Chunks, Digest: info.Digest, Duplicate: dup})
		}
	}
	sc.check(rec, code, want)
	if sc.registered(id) == nil {
		sc.nothingStored(id)
	}
}

// appendOversized declares a chunk over the limit: 413 before a byte of it
// is read.
func (sc *scenario) appendOversized(id string) {
	sc.tb.Helper()
	req := httptest.NewRequest("POST", "/v1/traces/"+id+"/chunks?seq=0", unreadable{sc.tb})
	req.ContentLength = maxChunkBytes + 1
	rec, code := sc.send(req, "(oversized)")
	sc.check(rec, code, refused(http.StatusRequestEntityTooLarge, ErrCodeBadRequest))
	sc.nothingStored(id)
}

// The analyze bodies no server takes: cut short, an unknown option, bytes
// after the value.
var badAnalyzeBodies = []string{`{"workers":`, `{"bogus_option":1}`, `{"workers":1}garbage`}

// analyze is POST /v1/traces/{id}/analyze: an open trace's document is the
// offline Engine's over the events landed so far, with the zero Meta; a
// sealed or registered trace's the one rlscope-analyze prints over its
// directory, result-only for a streamed trace's uncorrected analyze, which
// renders the result set its seal stored; every other miss is an Engine run.
// It returns the body.
func (sc *scenario) analyze(id, body string) []byte {
	sc.tb.Helper()
	rec, code := sc.do("POST", "/v1/traces/"+id+"/analyze", body)
	m := sc.registered(id)
	var req AnalyzeRequest
	var want answer
	switch {
	case m == nil:
		want = refused(http.StatusNotFound, ErrCodeUnknownTrace)
	case decodeBody(body, &req, true) != nil:
		want = refused(http.StatusBadRequest, ErrCodeBadRequest)
	case m.state == StateOpen && req.Correction:
		want = refused(http.StatusBadRequest, ErrCodeCorrectionUnsupported)
	case req.Correction && sc.cfg.Calibration == nil:
		want = refused(http.StatusBadRequest, ErrCodeNoCalibration)
	}
	if want.status != 0 {
		sc.check(rec, code, want)
		return nil
	}
	slices.Sort(req.Procs)
	o := docOpts{procs: slices.Compact(req.Procs)}
	src, key, hit := rlscope.FromDir(m.dir), "", false
	want.hdr = map[string]string{"X-Rlscope-State": ""}
	if m.state == StateOpen {
		src = rlscope.FromTrace(&trace.Trace{Events: slices.Clone(m.src.Events[:m.next])})
		key = fmt.Sprintf("%p %d %v", m.src, m.next, o.procs)
		hit, m.slot = key == m.slot, key
		want.hdr["X-Rlscope-Digest"] = sc.openSummary(id, m).Digest
	} else {
		if m.state != StateSealed || req.Correction {
			if sc.cfg.MaxWorkers != 1 {
				sc.tb.Fatal("the model renders a document's stats block at one worker")
			}
			o.full, o.maxResident = true, max(req.MaxResidentBytes, 0)
			if req.Correction {
				o.cal = sc.cfg.Calibration
			}
		}
		digest := m.entry.info.Digest
		if sc.broken[digest] {
			// Every run over it fails, and nothing is stored.
			sc.runs++
			sc.check(rec, code, refused(http.StatusInternalServerError, ErrCodeAnalysisFailed))
			return nil
		}
		key = docKey(digest, o.full, o.maxResident, req.Correction, o.procs)
		if hit = sc.stored[key]; !hit && o.full {
			// One run fills every stored form of its answer: an uncorrected,
			// unfiltered one the result set too.
			sc.runs++
			if !req.Correction && len(o.procs) == 0 {
				sc.stored["rs|"+digest] = true
			}
		}
		sc.stored[key] = true
		want.hdr["X-Rlscope-Digest"] = m.entry.info.Digest
	}
	if m.state != stateRegistered {
		want.hdr["X-Rlscope-State"] = m.state
	}
	want.hdr["X-Rlscope-Cache"] = map[bool]string{true: "hit", false: "miss"}[hit]
	if sc.renders[key] == nil {
		sc.renders[key] = offlineDoc(sc.tb, src, o)
	}
	want.status, want.body = http.StatusOK, sc.renders[key]
	sc.check(rec, code, want)
	return want.body
}

// docKey is the model's report-store key of a sealed or registered trace's
// document: full or result-only, under a residency bound, corrected or not,
// over a process filter. The walks run at one worker, so every request's
// workers are one.
func docKey(digest string, full bool, maxResident int64, corrected bool, procs []trace.ProcID) string {
	return fmt.Sprint(digest, full, maxResident, corrected, procs)
}

// docOpts are the rlscope-analyze flags offlineDoc renders under, at
// -workers 1.
type docOpts struct {
	procs       []trace.ProcID
	maxResident int64
	cal         *calib.Calibration // -calibration, for a corrected run
	full        bool               // -json; else -json -result-only
}

// offlineDoc is what rlscope-analyze prints over src: the one model render.
func offlineDoc(tb testing.TB, src rlscope.Source, o docOpts) []byte {
	tb.Helper()
	opts := []rlscope.EngineOption{rlscope.WithWorkers(1), rlscope.WithProcesses(o.procs...), rlscope.WithMaxResidentBytes(o.maxResident)}
	if o.cal != nil {
		opts = append(opts, rlscope.WithCorrection(o.cal))
	}
	rep, err := rlscope.NewEngine(opts...).Analyze(context.Background(), src)
	if err != nil {
		tb.Fatal(err)
	}
	doc := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected)
	if o.full {
		doc = report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected)
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sealBody is m's run's metadata with labels the listing and the fleet
// filter on, an awkward one among them, a host, and sometimes a process no
// event mentions; or the empty body, or a misspelt field.
func (sc *scenario) sealBody(m *traceModel) string {
	switch {
	case sc.pick(8) == 0:
		return `{"workload":"w","lables":{"algo":"ppo"}}`
	case sc.pick(6) == 0 || m == nil || m.src == nil:
		return ""
	}
	meta := m.src.Meta
	meta.Procs = maps.Clone(meta.Procs)
	meta.Labels = map[string]string{"algo": []string{"ppo", "dqn", "sac"}[sc.pick(3)]}
	if sc.pick(3) == 0 {
		meta.Labels["html"] = "a<b>&c \u2028 naïve"
	}
	if meta.Host = fmt.Sprintf("node-%d", sc.pick(2)); sc.pick(2) == 0 {
		meta.Procs[7] = trace.ProcInfo{Name: "idle", Parent: 0}
	}
	b, err := json.Marshal(meta)
	if err != nil {
		sc.tb.Fatal(err)
	}
	return string(b)
}

// seal is POST /v1/traces/{id}/seal: the sealed entry is AddDir's over the
// store directory, the result set and unfiltered document are stored, and
// the final counters cover every landed chunk.
func (sc *scenario) seal(id, body string) {
	sc.tb.Helper()
	rec, code := sc.do("POST", "/v1/traces/"+id+"/seal", body)
	m, want := sc.registered(id), sc.refusal(id)
	switch {
	case m == nil:
		want = refused(http.StatusNotFound, ErrCodeUnknownTrace)
	case want.status != 0:
	case decodeBody(body, &trace.Meta{}, true) != nil:
		want = refused(http.StatusBadRequest, ErrCodeBadRequest)
	default:
		m.state, m.entry = StateSealed, sc.snapshot(id, m.dir)
		want = sc.encoded(http.StatusOK, SealResponse{ID: id, Chunks: len(m.frames), Digest: m.entry.info.Digest})
		sc.stored["rs|"+m.entry.info.Digest] = true
		sc.stored[docKey(m.entry.info.Digest, false, 0, false, nil)] = true
		if st, ok := sc.s.IncrementalStats(id); !ok || st.Chunks != len(m.frames) || st.Events != m.next {
			sc.tb.Fatalf("%.200s: final stats %+v ok=%v, the model says %d chunks of %d events", sc.what, st, ok, len(m.frames), m.next)
		}
	}
	sc.check(rec, code, want)
}

func (sc *scenario) snapshot(id, dir string) *traceEntry {
	entry, err := newTraceEntry(id, dir)
	if err != nil {
		sc.tb.Fatal(err)
	}
	return entry
}

// summary is GET /v1/traces/{id}/summary.
func (sc *scenario) summary(id string) {
	sc.tb.Helper()
	rec, code := sc.do("GET", "/v1/traces/"+id+"/summary", "")
	switch m := sc.registered(id); {
	case m == nil:
		sc.check(rec, code, refused(http.StatusNotFound, ErrCodeUnknownTrace))
	case m.entry == nil:
		sc.check(rec, code, sc.encoded(http.StatusOK, sc.openSummary(id, m)))
	default:
		sc.check(rec, code, answer{status: http.StatusOK, body: m.entry.summary.b})
	}
}

// The listing query strings a walk sends: filters, and strings no server
// parses (a bad escape, a semicolon, an unknown or repeated parameter).
var listQueries = []string{
	"", "label.algo=ppo", "label.algo=p*", "id=t*", "label.html=a%3Cb%3E*", "workload=two-proc", "host=node-1",
	"label.algo=%zz", "label.algo=dqn;x=1", "label.framework=tf&label.algo=%zz", "label.algo=dqn&%zz", "bogus=1", "id=a&id=b",
}

// list is GET /v1/traces?query: report.EncodeJSON of the rows the filter
// selects, in registration order. It returns them.
func (sc *scenario) list(query string) []TraceInfo {
	sc.tb.Helper()
	rec, code := sc.do("GET", "/v1/traces?"+query, "")
	params, err := url.ParseQuery(query)
	filter := map[string]string{}
	for k, v := range params {
		if filter[k] = v[0]; len(v) > 1 {
			err = fmt.Errorf("%s repeated", k)
		}
	}
	matcher, merr := fleet.NewMatcher(filter)
	if err != nil || merr != nil {
		sc.check(rec, code, refused(http.StatusBadRequest, ErrCodeBadRequest))
		return nil
	}
	rows := []TraceInfo{}
	for _, id := range sc.order {
		if row, meta := sc.row(id); matcher.Match(fleet.Trace{ID: id, Meta: meta}) {
			rows = append(rows, row)
		}
	}
	sc.check(rec, code, sc.encoded(http.StatusOK, struct {
		Traces []TraceInfo `json:"traces"`
	}{rows}))
	return rows
}

// The query bodies a walk sends; the last two no server compiles.
var queryBodies = []string{
	`{}`, `{"group_by":["label.algo"]}`, `{"filter":{"id":"t*"},"group_by":["label.algo"]}`,
	`{"filter":{"label.algo":"ppo"},"metrics":["gpu_frac"]}`, `{"group_by":["nope"]}`, `{"group_by":["label.algo"]}]`,
}

// query is POST /v1/query: rlscope-query's document over the sealed and
// registered traces. A repeat over the same matched traces — ids and
// contents — is a hit; a miss runs the Engine once per digest whose result
// set is not stored, in the order they matched, and each run stores the
// default analyze document too. A run over a broken directory fails the
// query, and the traces after it are not loaded. It returns the document.
func (sc *scenario) query(body string) []byte {
	sc.tb.Helper()
	rec, code := sc.do("POST", "/v1/query", body)
	var q fleet.Query
	err := decodeBody(body, &q, false)
	var plan *fleet.Plan
	if err == nil {
		plan, err = fleet.Compile(q)
	}
	if err != nil {
		sc.check(rec, code, refused(http.StatusBadRequest, ErrCodeBadRequest))
		return nil
	}
	var candidates []fleet.Trace
	dirs := map[string]string{}
	for _, id := range sc.order {
		if m := sc.traces[id]; m.entry != nil {
			candidates = append(candidates, fleet.Trace{ID: id, Meta: m.entry.meta, Digest: m.entry.info.Digest})
			dirs[id] = m.dir
		}
	}
	matched, err := plan.Select(candidates)
	if err != nil {
		sc.tb.Fatal(err)
	}
	key := "q|" + body
	for _, t := range matched {
		key += "|" + t.ID + " " + t.Digest
	}
	want := answer{status: http.StatusOK, hdr: map[string]string{"X-Rlscope-Cache": "hit", "X-Rlscope-Engine-Runs": "0"}}
	if !sc.stored[key] {
		runs := 0
		for _, t := range matched {
			if sc.stored["rs|"+t.Digest] {
				continue
			}
			runs++
			if sc.broken[t.Digest] {
				sc.runs += int64(runs)
				sc.check(rec, code, refused(http.StatusInternalServerError, ErrCodeAnalysisFailed))
				return nil
			}
			sc.stored["rs|"+t.Digest] = true
			sc.stored[docKey(t.Digest, true, 0, false, nil)] = true
		}
		sc.stored[key], sc.runs = true, sc.runs+int64(runs)
		want.hdr = map[string]string{"X-Rlscope-Cache": "miss", "X-Rlscope-Engine-Runs": fmt.Sprint(runs)}
	}
	if want.body = sc.renders[key]; want.body == nil {
		want.body = offlineQueryDoc(sc.tb, q, dirs)
		sc.renders[key] = want.body
	}
	sc.check(rec, code, want)
	return want.body
}

// stream appends tr in n frames under id and seals it with tr's metadata
// and labels.
func (sc *scenario) stream(id string, tr *trace.Trace, n int, labels map[string]string) {
	sc.tb.Helper()
	for seq, c := range frameChunks(sc.tb, tr, n) {
		sc.append(id, seq, c, tr)
	}
	meta := tr.Meta
	meta.Labels = labels
	body, err := json.Marshal(meta)
	if err != nil {
		sc.tb.Fatal(err)
	}
	sc.seal(id, string(body))
}

// addBroken is AddDir of a directory whose first chunk is cut short: it
// registers, since AddDir reads only the sidecars, and the model knows that
// no Engine run over it completes.
func (sc *scenario) addBroken(id, dir string) {
	sc.tb.Helper()
	chunks, err := filepath.Glob(filepath.Join(dir, "*.rlstrace"))
	if err != nil || len(chunks) == 0 {
		sc.tb.Fatalf("no chunk in %s: %v", dir, err)
	}
	b, err := os.ReadFile(chunks[0])
	if err == nil {
		err = os.WriteFile(chunks[0], b[:len(b)/2], 0o644)
	}
	if err != nil {
		sc.tb.Fatal(err)
	}
	if sc.addDir(id, dir); sc.registered(id) != nil {
		sc.broken[sc.traces[id].entry.info.Digest] = true
	}
}

// addDir is AddDir: refused for an invalid id, one a server entry holds, or
// a directory with no trace files.
func (sc *scenario) addDir(id, dir string) *scenario {
	sc.tb.Helper()
	_, derr := trace.DirDigest(dir)
	if want := validID(id) && sc.registered(id) == nil && derr == nil; sc.adopt(id, dir) != want {
		sc.tb.Fatalf("AddDir %q: registered %v, the model says the opposite", id, !want)
	}
	return sc
}

// adopt is AddDir, and the model takes what it registered: AddDir's
// snapshot of dir. It reports whether AddDir registered it.
func (sc *scenario) adopt(id, dir string) bool {
	sc.tb.Helper()
	info, err := sc.s.AddDir(id, dir)
	if err != nil {
		return false
	}
	m := &traceModel{state: stateRegistered, dir: dir, entry: sc.snapshot(id, dir)}
	if _, ok := sc.s.IncrementalStats(id); ok || fmt.Sprint(info) != fmt.Sprint(m.entry.info) {
		sc.tb.Fatalf("AddDir %q: %+v (incremental stats: %v), the model says %+v", id, info, ok, m.entry.info)
	}
	sc.traces[id], sc.order = m, append(sc.order, id)
	return true
}

// restart closes the server and opens one over the same stores, and
// registers what the old one had registered, as rlscope-serve's -trace
// flags do. Streamed traces, open or sealed, are gone: their directories
// refuse a new trace of the same id. The memory tier goes; a disk tier stays.
func (sc *scenario) restart() {
	sc.tb.Helper()
	sc.s.Close()
	sc.s = NewServer(sc.cfg)
	sc.h, sc.runs = sc.s.Handler(), 0
	maps.DeleteFunc(sc.stored, func(k string, _ bool) bool { return sc.cfg.Reports == nil || strings.HasPrefix(k, "q|") })
	ids := sc.order
	sc.order = nil
	for _, id := range ids {
		if m := sc.traces[id]; m.state == stateRegistered {
			delete(sc.traces, id)
			sc.addDir(id, m.dir)
		} else {
			m.state, m.slot = stateGone, ""
		}
	}
	// A walk keeps one gone id to pick, and streams on under fresh ones.
	pool, kept := sc.ids[:0:0], false
	for _, id := range sc.ids {
		if m := sc.traces[id]; m == nil || m.state != stateGone || !kept {
			kept = kept || m != nil && m.state == stateGone
			pool = append(pool, id)
		}
	}
	for n := 0; len(pool) < len(sc.ids); n++ {
		if id := fmt.Sprintf("t%d", n); sc.traces[id] == nil && !slices.Contains(pool, id) {
			pool = append(pool, id)
		}
	}
	sc.ids = pool
}

// healthz is GET /healthz: the registry's size, the Engine runs, and the
// budgets, defaulted as Config says.
func (sc *scenario) healthz() {
	sc.tb.Helper()
	rec, code := sc.do("GET", "/healthz", "")
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		sc.tb.Fatalf("GET /healthz: %d %v", rec.Code, err)
	}
	// The cache's and the store's counters are the server's own business.
	h.Status, h.Traces, h.EngineRuns = "ok", len(sc.order), sc.runs
	if h.Workers.Total = sc.cfg.MaxWorkers; h.Workers.Total <= 0 {
		h.Workers.Total = analysis.DefaultWorkers()
	}
	if h.Workers.Available, h.Cache.MaxBytes = h.Workers.Total, sc.cfg.CacheBytes; h.Cache.MaxBytes <= 0 {
		h.Cache.MaxBytes = DefaultCacheBytes
	}
	sc.check(rec, code, sc.encoded(http.StatusOK, h))
}

// pickID is mostly a known trace's id, an open one's half the time so that
// traces grow; sometimes one that breaks the id rule.
func (sc *scenario) pickID() string {
	k := sc.pick(12)
	if k == 0 {
		return badIDs[sc.pick(len(badIDs))]
	}
	var known []string
	for _, id := range sc.ids {
		if m := sc.registered(id); m != nil && (k >= 7 || m.state == StateOpen) {
			known = append(known, id)
		}
	}
	if len(known) > 0 && k < 10 {
		return known[sc.pick(len(known))]
	}
	return sc.ids[sc.pick(len(sc.ids))]
}

// walkAppend appends to id: mostly its next frame; else a replay of a landed
// seq, the same bytes or its events framed anew; a seq past the next; bytes
// that are not a frame, padded or multipart; no seq; or a body declared
// over the limit.
func (sc *scenario) walkAppend(id string) {
	sc.tb.Helper()
	m, src, from, seq := sc.registered(id), sc.source(), 0, 0
	if m != nil {
		seq = len(m.frames)
		if m.src != nil {
			src, from = m.src, min(m.next, len(m.src.Events)-1)
		}
	}
	c := sc.cut(src, from)
	switch sc.pick(10) {
	case 0:
		if seq > 0 {
			seq = sc.pick(seq)
			c = chunk{b: m.frames[seq]}
			if events, err := trace.DecodeChunkBytes(c.b, nil, nil); err == nil && sc.pick(2) == 0 {
				c.b, _, _ = trace.EncodeEventsFormat(events, []trace.Format{trace.FormatV1, trace.FormatV2}[sc.pick(2)])
			}
		}
		sc.append(id, seq, c, src)
	case 1:
		sc.append(id, seq+1+sc.pick(3), c, src)
	case 2:
		sc.append(id, seq, []chunk{{b: []byte("not a chunk frame"), end: -1}, {b: append(c.b, 1, 2, 3), end: -1}, multipartChunk(sc.tb, c.b)}[sc.pick(3)], src)
	case 3:
		sc.append(id, -1, c, src)
	case 4:
		sc.appendOversized(id)
	default:
		sc.appendNext(id)
	}
}

// analyzeBody is an analyze body of picked options, or one no server takes.
func (sc *scenario) analyzeBody() string {
	if sc.pick(10) == 0 {
		return badAnalyzeBodies[sc.pick(len(badAnalyzeBodies))]
	}
	req := AnalyzeRequest{Workers: sc.pick(3), MaxResidentBytes: int64(sc.pick(4)/3) * 4096, Correction: sc.pick(5) == 0}
	for n := sc.pick(3); n > 0; n-- {
		req.Procs = append(req.Procs, []trace.ProcID{0, 1, 7}[sc.pick(3)])
	}
	b, err := json.Marshal(req)
	if err != nil {
		sc.tb.Fatal(err)
	}
	if len(b) == 2 && sc.pick(2) == 0 {
		return ""
	}
	return string(b)
}

// step is one operation of a walk. An own walk, one of several on one
// server, touches only its ids and reads nothing the others change: no
// listing, query, registration, restart or health.
func (sc *scenario) step() {
	sc.tb.Helper()
	id := sc.pickID()
	switch k := sc.pick(20); {
	case k < 7:
		sc.walkAppend(id)
	case k < 11:
		sc.analyze(id, sc.analyzeBody())
	case k == 11:
		body, _ := json.Marshal(CreateTraceRequest{ID: id})
		if sc.pick(6) == 0 {
			body = []byte([]string{`{"bogus":1}`, `{"id":"x"} {}`, ``}[sc.pick(3)])
		}
		sc.create(string(body))
	case k == 12:
		sc.seal(id, sc.sealBody(sc.registered(id)))
	case k == 13:
		sc.summary(id)
	case k == 14:
		// A path no route has, or a method a route does not take.
		m := routeMisses[sc.pick(len(routeMisses))]
		if m.code == ErrCodeUnknownRoute || m.code == ErrCodeMethodNotAllowed {
			rec, code := sc.do(m.method, m.target, "")
			sc.check(rec, code, refused(m.status, m.code))
		}
	case sc.own:
	case k == 15:
		sc.list(listQueries[sc.pick(len(listQueries))])
	case k == 16:
		sc.query(queryBodies[sc.pick(len(queryBodies))])
	case k == 17:
		dirs := slices.Clone(sc.fixtures)
		for _, id := range sc.order {
			if m := sc.traces[id]; m.entry != nil && m.src != nil {
				dirs = append(dirs, m.dir)
			}
		}
		if sc.pick(3) > 0 {
			id = []string{"twin", "reg"}[sc.pick(2)]
		}
		sc.addDir(id, dirs[sc.pick(len(dirs))])
	case k == 18:
		sc.healthz()
	case sc.pick(3) == 0:
		sc.restart()
	}
}

// walk builds a server from cfg at one worker, and takes steps picked by pick.
func walk(tb testing.TB, cfg Config, pick func(int) int, steps int, fixtures []string) *scenario {
	tb.Helper()
	cfg.MaxWorkers = 1
	sc := newScenario(tb, cfg)
	sc.pick, sc.ids, sc.fixtures = pick, []string{"t0", "t1", "t2", "twin"}, fixtures
	for i := 0; i < steps && !tb.Failed(); i++ {
		sc.step()
	}
	return sc
}

var scenarioCal = &calib.Calibration{Annotation: 50 * vclock.Nanosecond, Interception: 30 * vclock.Nanosecond, CUDAIntercept: 20 * vclock.Nanosecond}

// scenarioFixtures are the directories a walk registers: one with labels
// that need escaping, and a plain one.
func scenarioFixtures(tb testing.TB) []string {
	return []string{
		labeledDir(tb, 12, map[string]string{"algo": "ppo", "html": "a<b>&c", "note": "<b> & \"quoted\" \u2028 naïve 日本 >"}),
		labeledDir(tb, 16, nil),
	}
}

// TestScenarios walks the server from two seeds: with a calibration, over a
// persistent report store, without a trace store, and over a store path
// that is a regular file. A walk with a calibration then registers a
// directory whose chunk no longer decodes, and analyzes and queries it.
// Together the walks answer every code but a cancelled run's.
func TestScenarios(t *testing.T) {
	fixtures, seen := scenarioFixtures(t), map[string]int{}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		reports, err := NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			cfg   Config
			steps int
		}{
			{"calibrated", Config{Calibration: scenarioCal}, 400},
			{"report-store", Config{Reports: reports}, 400},
			{"no-store", Config{StoreDir: noStore}, 60},
			{"store-is-a-file", Config{StoreDir: file}, 60},
		} {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				sc := walk(t, c.cfg, rand.New(rand.NewSource(seed)).Intn, c.steps, fixtures)
				if c.cfg.Calibration != nil && !t.Failed() {
					sc.addBroken("broken", labeledDir(t, 12, nil))
					sc.analyze("broken", "")
					sc.analyze("broken", `{"correction":true}`)
					sc.query(`{}`)
				}
				for _, answer := range sc.trail {
					seen[answer]++
				}
			})
		}
	}
	for code := range documentedCodes(t) {
		if seen[code] == 0 && code != ErrCodeAnalysisAborted {
			t.Errorf("no walk answered %s", code)
		}
	}
}

// TestScenariosConcurrent: K goroutines walk one server, each on its own ids
// and each step checked as it answers, while they stream one shared trace,
// opened beforehand: each goroutine owns every K-th seq and retries it on
// out_of_order_sequence until it lands. After the barrier the shared trace
// is checked, sealed and analyzed, and a walk goes on over every trace.
func TestScenariosConcurrent(t *testing.T) {
	const k, steps = 4, 40
	sc := newScenario(t, Config{MaxWorkers: 1})
	sc.create(`{"id":"shared"}`)
	sc.create(`{"id":"shared"}`)
	m := sc.traces["shared"]
	m.src, sc.fixtures = sources[0], scenarioFixtures(t)
	var frames [][]byte
	for m.next < len(m.src.Events) {
		c := sc.cut(m.src, m.next)
		frames, m.next = append(frames, c.b), c.end
	}
	subs := make([]scenario, k)
	var wg sync.WaitGroup
	for g := range subs {
		sub := &subs[g]
		*sub = *sc
		sub.tb, sub.trail, sub.order = goroutineTB{t}, nil, nil
		sub.traces, sub.renders, sub.stored, sub.inStore =
			map[string]*traceModel{}, map[string][]byte{}, map[string]bool{}, map[string]bool{}
		sub.pick, sub.own, sub.ids = rand.New(rand.NewSource(int64(g))).Intn, true, []string{fmt.Sprintf("g%d-a", g), fmt.Sprintf("g%d-b", g)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				sub.step()
				if seq := i/2*k + g; i%2 == 0 && seq < len(frames) {
					appendRetrying(sub.tb, sc.h, "shared", seq, frames[seq])
				}
			}
			for seq := steps/2*k + g; seq < len(frames); seq += k {
				appendRetrying(sub.tb, sc.h, "shared", seq, frames[seq])
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	m.frames = frames
	for _, sub := range subs {
		maps.Copy(sc.traces, sub.traces)
		maps.Copy(sc.stored, sub.stored)
		maps.Copy(sc.inStore, sub.inStore)
	}
	// Which goroutine opened its traces first was up to the scheduler: take
	// the registry's order, holding exactly the model's ids.
	sc.order = nil
	for _, e := range sc.s.reg.Load().entries {
		sc.order = append(sc.order, e.id)
	}
	if got := slices.Sorted(maps.Keys(sc.traces)); !slices.Equal(got, slices.Sorted(slices.Values(sc.order))) {
		t.Fatalf("registry %v, the model has %v", sc.order, got)
	}
	sc.list("")
	sc.summary("shared")
	sc.analyze("shared", `{"procs":[1]}`)
	sc.seal("shared", sc.sealBody(m))
	for _, body := range []string{`{"workers":1}`, `{"workers":1}`, `{"procs":[0]}`, `{"procs":[7]}`, `{"procs":[0]}`, `{"workers":1}`} {
		sc.analyze("shared", body)
	}
	sc.ids, sc.pick = slices.Clone(sc.order), rand.New(rand.NewSource(k)).Intn
	for i := 0; i < steps; i++ {
		sc.step()
	}
}

// goroutineTB is the testing.TB of a walk off the test's goroutine: a fatal
// failure is reported and ends that goroutine only.
type goroutineTB struct{ testing.TB }

func (g goroutineTB) Fatal(args ...any) {
	g.Helper()
	g.Error(args...)
	runtime.Goexit()
}

func (g goroutineTB) Fatalf(format string, args ...any) {
	g.Helper()
	g.Errorf(format, args...)
	runtime.Goexit()
}

// appendRetrying appends frame at seq until it lands, or the test has
// failed elsewhere.
func appendRetrying(tb testing.TB, h http.Handler, id string, seq int, frame []byte) {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		rec := doReq(tb, h, "POST", fmt.Sprintf("/v1/traces/%s/chunks?seq=%d", id, seq), string(frame))
		if rec.Code == http.StatusOK || tb.Failed() {
			return
		}
		if code := errCode(tb, rec); code != ErrCodeOutOfOrderSeq || time.Now().After(deadline) {
			tb.Errorf("seq %d: %d %s", seq, rec.Code, code)
			return
		}
	}
}

// FuzzHandler is the walk with the fuzz engine picking every operation and
// argument, bodies included: every answer is the model's.
func FuzzHandler(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x08\x08\x0c\x00\x0c\x0f\x10"))
	f.Add([]byte("\x01\x00\x01\x00\x01\x01\x09\x02\x0b\x09\x11\x01\x0d\x13\x00\x0e\x12"))
	f.Add([]byte("\x05\x03\x04\x02\x00\x07\x03\x05\x00\x0c\x03\x13\x02\x05\x03\x00"))
	fixtures := scenarioFixtures(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		sc := walk(t, Config{Calibration: scenarioCal}, func(n int) int {
			if len(in) == 0 {
				return 0
			}
			v := int(in[0]) % n
			in = in[1:]
			return v
		}, 0, fixtures)
		for len(in) > 0 && !t.Failed() {
			sc.step()
		}
	})
}

// twoProcTrace profiles a trainer and a simulator worker it forks, so process
// filters have something to choose between.
func twoProcTrace(tb testing.TB, steps int) *trace.Trace {
	tb.Helper()
	p := rlscope.New(rlscope.Options{Workload: "two-proc", Flags: rlscope.FullInstrumentation(), Seed: 1})
	trainer := p.NewProcess("trainer", -1, 0)
	ctx := cuda.NewContext(trainer, gpu.NewDevice(-1), cuda.DefaultCosts())
	worker := p.NewProcess("worker", 0, 0)
	trainer.SetPhase("training")
	for step := 0; step < steps; step++ {
		trainer.WithOperation("inference", func() {
			trainer.CallBackend("policy.forward", func() {
				ctx.LaunchKernel("dense", 3*vclock.Microsecond)
				ctx.StreamSynchronize()
			})
		})
		worker.WithOperation("simulation", func() {
			worker.CallSimulator("env.step", func() { worker.Clock().Advance(90 * vclock.Microsecond) })
		})
	}
	trainer.Close()
	worker.Close()
	return p.MustTrace()
}

func mustOK(tb testing.TB, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	tb.Helper()
	rec := doReq(tb, h, method, path, body)
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
	}
	return rec
}

// listingRows decodes a GET /v1/traces body.
func listingRows(tb testing.TB, body []byte) []TraceInfo {
	tb.Helper()
	var listing struct {
		Traces []TraceInfo `json:"traces"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		tb.Fatal(err)
	}
	return listing.Traces
}
