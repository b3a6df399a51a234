// Package serve implements rlscope-serve: a long-running HTTP/JSON service
// answering RL-Scope analysis queries over a repository of trace
// directories — registered (AddDir) or streamed in over
// POST /v1/traces/{id}/chunks and sealed (incremental.go); once sealed the
// two are one kind of entry. Reports are cached by content — the directory's
// DirDigest plus the canonicalized analysis options — in a bounded LRU, so
// repeated queries cost a map lookup; concurrent identical queries collapse
// into one Engine run via singleflight; a global worker budget bounds the
// Engine parallelism the service spends at once, however many clients are
// connected; and open traces are analyzed incrementally, so a report after a
// new chunk costs O(chunk) instead of O(trace).
//
// The response body of POST /analyze is the report.Analysis document
// `rlscope-analyze -json` prints — the CLI and the service are two front
// ends to one encoding, byte-identical at workers:1 (see the Analysis
// type's determinism contract for the stats caveat above that). Errors on
// every /v1 endpoint share one envelope, {"error":{"code","message"}},
// with the stable code vocabulary tabulated in DESIGN.md §9.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/calib"
	"repro/internal/fleet"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
)

// Config configures a Server. The zero value serves with a 64 MiB report
// cache, one Engine worker per CPU as the global budget, and correction
// disabled.
type Config struct {
	// CacheBytes bounds the total encoded size of cached analysis
	// documents; <= 0 selects 64 MiB.
	CacheBytes int64
	// MaxWorkers is the global Engine-worker budget shared by every
	// in-flight analysis; <= 0 selects one per CPU.
	MaxWorkers int
	// Calibration, when set, lets clients request overhead-corrected
	// analyses ({"correction": true}); without it such requests fail
	// with 400.
	Calibration *calib.Calibration
	// StoreDir, when set, enables live ingest: POST /v1/traces/{id}/chunks
	// creates trace directories under it on first write. Empty disables
	// the write path (ingest requests fail with 403 ingest_disabled).
	StoreDir string
	// Reports, when set, adds a persistent content-addressed report store
	// (NewDiskStore) under the LRU: encoded reports land on disk keyed by
	// (digest, canonical options), so cache warmth survives restarts and a
	// fleet of servers sharing one directory share one store. Nil keeps the
	// cache in memory only.
	Reports *DiskStore
}

// DefaultCacheBytes is the report-cache budget selected by Config.CacheBytes <= 0.
const DefaultCacheBytes = 64 << 20

// Server is the service state: the trace registry, the report cache, the
// singleflight group, and the admission budget. Register traces with AddDir,
// mount Handler on an http.Server, and Close on shutdown to abort any
// still-running analyses.
type Server struct {
	cfg  Config
	stop context.CancelFunc

	mu     sync.RWMutex
	traces map[string]*traceEntry
	ids    []string // registration order: AddDir, or a streamed trace's first write

	store   *tieredStore
	flights *flightGroup
	budget  *workerBudget

	// engineRuns counts Engine.Analyze calls actually started — the
	// instrumented ground truth that cache hits and deduplicated
	// requests perform zero Engine work.
	engineRuns atomic.Int64

	// preRun, when set (tests only), runs inside the singleflight call
	// before admission and the Engine run, on the flight's run context.
	preRun func(ctx context.Context, key string)
}

// traceEntry is one trace of the registry, in one of two states. Open
// (live != nil): the trace is being streamed in, live owns everything that
// moves and the other fields are zero. Sealed (live == nil): an immutable
// snapshot of a finished directory's content — AddDir builds it from the
// directory, POST /seal from memory, swapping it in at the same id. A sealed
// entry is never modified; when a miss-path analysis finds the directory
// rewritten a fresh entry replaces it, and handlers holding the old pointer
// keep a consistent (if stale) read-only view.
type traceEntry struct {
	id   string
	live *liveTrace

	info TraceInfo
	dir  string
	meta trace.Meta
	// summary is the encoded TraceSummary: GET /summary serves these bytes.
	// row is info encoded as a listing row (encodeRow), and digestHdr the
	// X-Rlscope-Digest value analyzes answer with: both built with summary.
	summary   []byte
	row       []byte
	digestHdr []string
	// streamed, the final incremental counters, is all that tells a sealed
	// entry that arrived over /chunks from one AddDir registered. Its results
	// never came from a batch run, so its uncorrected analyzes are the
	// result-only document (no stats block: no Engine run to describe), and
	// an append to it is trace_sealed rather than trace_exists.
	streamed *analysis.IncrementalStats
}

// TraceInfo is one trace's identity row (GET /v1/traces).
type TraceInfo struct {
	ID       string `json:"id"`
	Digest   string `json:"digest"`
	Workload string `json:"workload"`
	// Host is the originating machine (trace.Meta.Host) — the fleet
	// `host` dimension.
	Host string `json:"host,omitempty"`
	// Labels are the trace's free-form metadata annotations
	// (rlscope-prof -label k=v) — the dimensions fleet queries filter
	// and group by.
	Labels map[string]string `json:"labels,omitempty"`
	Chunks int               `json:"chunks"`
	Events int               `json:"events"`
	Procs  int               `json:"procs"`
	// State is StateOpen while the trace accepts chunks, StateSealed after.
	State string `json:"state"`
}

// TraceSummary is the sidecar-derived quick look at one trace
// (GET /v1/traces/{id}/summary): per-process event counts and extents plus
// the fork tree, computed at registration without decoding any chunk.
type TraceSummary struct {
	TraceInfo
	Config    trace.FeatureFlags `json:"config"`
	Processes []ProcSummary      `json:"processes"`
	Tree      []*report.TreeNode `json:"tree"`
	Phases    []string           `json:"phases,omitempty"`
}

// ProcSummary is one process's row of a TraceSummary.
type ProcSummary struct {
	Proc     trace.ProcID `json:"proc"`
	Name     string       `json:"name"`
	Parent   trace.ProcID `json:"parent"`
	Events   int          `json:"events"`
	MinStart int64        `json:"min_start_ns"`
	MaxEnd   int64        `json:"max_end_ns"`
}

// AnalyzeRequest is the POST /v1/traces/{id}/analyze body. The zero value
// (or an empty body) analyzes every process with the full worker budget,
// unbounded residency, and no correction.
type AnalyzeRequest struct {
	// Workers requests an Engine pool size; it is clamped to the
	// service's global budget, and <= 0 selects the clamped default.
	Workers int `json:"workers,omitempty"`
	// MaxResidentBytes bounds the streaming analysis's resident decoded
	// events, exactly like rlscope-analyze -max-resident.
	MaxResidentBytes int64 `json:"max_resident_bytes,omitempty"`
	// Correction requests overhead correction; the server must have been
	// configured with a calibration.
	Correction bool `json:"correction,omitempty"`
	// Procs restricts the analysis to the listed processes (empty = all).
	Procs []trace.ProcID `json:"procs,omitempty"`
}

// NewServer builds a Server from cfg. Call Close when done with it.
func NewServer(cfg Config) *Server {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = analysis.DefaultWorkers()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		stop:    cancel,
		traces:  map[string]*traceEntry{},
		store:   &tieredStore{lru: newReportCache(cfg.CacheBytes), disk: cfg.Reports},
		flights: newFlightGroup(ctx),
		budget:  newWorkerBudget(cfg.MaxWorkers),
	}
}

// Close aborts every in-flight Engine run (their contexts descend from the
// server's). Call it after draining the HTTP listener.
func (s *Server) Close() { s.stop() }

// EngineRuns reports how many Engine.Analyze calls the server has started.
func (s *Server) EngineRuns() int64 { return s.engineRuns.Load() }

// AddDir registers a chunked trace directory under id: it digests the
// directory's content, reads the run metadata, and precomputes the sidecar
// summary. Registering the same id twice is an error; the same directory
// under two ids is fine (they share a digest, hence a cache footprint).
func (s *Server) AddDir(id, dir string) (TraceInfo, error) {
	if err := checkTraceID(id); err != nil {
		return TraceInfo{}, fmt.Errorf("serve: %w", err)
	}
	entry, err := newTraceEntry(id, dir)
	if err != nil {
		return TraceInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.traces[id]; ok {
		return TraceInfo{}, fmt.Errorf("serve: trace id %q already registered", id)
	}
	s.traces[id] = entry
	s.ids = append(s.ids, id)
	return entry.info, nil
}

// AddDirArg registers a directory given as DIR or NAME=DIR, the one spelling
// rlscope-serve -trace and rlscope-query share: a bare DIR is registered
// under its basename.
func (s *Server) AddDirArg(arg string) (TraceInfo, error) {
	id, dir, ok := strings.Cut(arg, "=")
	if !ok {
		id, dir = filepath.Base(filepath.Clean(arg)), arg
	}
	return s.AddDir(id, dir)
}

// newTraceEntry snapshots a directory's content: digest, metadata, and the
// sidecar summary.
func newTraceEntry(id, dir string) (*traceEntry, error) {
	digest, err := trace.DirDigest(dir)
	if err != nil {
		return nil, err
	}
	r, err := trace.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	var fold summaryFold
	for i := 0; i < r.NumChunks(); i++ {
		// A missing sidecar falls back to a one-off chunk decode inside
		// Index, so pre-sidecar directories still register.
		ix, err := r.Index(i)
		if err != nil {
			return nil, err
		}
		fold.foldIndex(ix)
	}
	return sealedEntry(id, dir, digest, r.Meta(), &fold)
}

// sealedEntry builds a trace's sealed state from what AddDir has just read
// from dir and what seal holds in memory.
func sealedEntry(id, dir, digest string, meta trace.Meta, fold *summaryFold) (*traceEntry, error) {
	summary := buildSummary(fold, id, digest, StateSealed, meta)
	var body bytes.Buffer
	if err := report.EncodeJSON(&body, summary); err != nil {
		return nil, fmt.Errorf("serve: encoding summary of %s: %w", dir, err)
	}
	row, err := encodeRow(summary.TraceInfo)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding listing row of %s: %w", dir, err)
	}
	return &traceEntry{
		id: id, info: summary.TraceInfo, dir: dir, meta: meta,
		summary: body.Bytes(), row: row, digestHdr: []string{digest},
	}, nil
}

// encodeRow encodes a listing row the way report.EncodeJSON lays it out as
// an element of {"traces": [...]}: two levels deep, so each line after the
// first gains four spaces, and without the trailing newline. A JSON string
// holds no raw newline, so every newline of the encoding is a line break.
func encodeRow(info TraceInfo) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.EncodeJSON(&buf, info); err != nil {
		return nil, err
	}
	return bytes.ReplaceAll(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"), []byte("\n    ")), nil
}

// summaryFold accumulates what a trace's listing row and summary need from
// its sidecar indexes — no chunk is decoded. Each index is folded in exactly
// once: as its chunk is appended to an open trace, or as newTraceEntry walks
// a complete directory.
type summaryFold struct {
	chunks, events int
	spans          map[trace.ProcID]trace.ProcSpan // over the whole trace
	phases         map[string]bool
}

func (f *summaryFold) foldIndex(ix *trace.ChunkIndex) {
	if f.spans == nil {
		f.spans, f.phases = map[trace.ProcID]trace.ProcSpan{}, map[string]bool{}
	}
	f.chunks++
	f.events += ix.Events
	for p, sp := range ix.Procs {
		if agg, ok := f.spans[p]; ok {
			sp = trace.ProcSpan{MinStart: min(agg.MinStart, sp.MinStart), MaxEnd: max(agg.MaxEnd, sp.MaxEnd), Events: agg.Events + sp.Events}
		}
		f.spans[p] = sp
	}
	for _, e := range ix.Phases {
		f.phases[e.Name] = true
	}
}

// buildSummary renders the fold as a trace's summary, listing row included.
// An open trace has no metadata yet and passes the zero Meta.
func buildSummary(f *summaryFold, id, digest, state string, meta trace.Meta) *TraceSummary {
	// List every process the metadata or the chunks know about: metadata
	// names processes, chunks prove they produced events.
	procs := make([]trace.ProcID, 0, len(f.spans))
	for p := range f.spans {
		procs = append(procs, p)
	}
	for p := range meta.Procs {
		if _, ok := f.spans[p]; !ok {
			procs = append(procs, p)
		}
	}
	slices.Sort(procs)

	sum := &TraceSummary{
		TraceInfo: TraceInfo{
			ID: id, Digest: digest, Workload: meta.Workload, Host: meta.Host, Labels: meta.Labels,
			Chunks: f.chunks, Events: f.events, Procs: len(procs), State: state,
		},
		Config: meta.Config,
		Tree:   report.TreeJSON(meta),
	}
	for _, p := range procs {
		ps := ProcSummary{Proc: p, Name: report.ProcName(meta, p), Parent: meta.Procs[p].Parent}
		if sp, ok := f.spans[p]; ok {
			ps.Events, ps.MinStart, ps.MaxEnd = sp.Events, int64(sp.MinStart), int64(sp.MaxEnd)
		}
		sum.Processes = append(sum.Processes, ps)
	}
	for name := range f.phases {
		sum.Phases = append(sum.Phases, name)
	}
	slices.Sort(sum.Phases)
	return sum
}

func (s *Server) lookup(id string) *traceEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.traces[id]
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("POST /v1/traces", s.handleCreateTrace)
	mux.HandleFunc("GET /v1/traces/{id}/summary", s.handleSummary)
	mux.HandleFunc("POST /v1/traces/{id}/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/traces/{id}/chunks", s.handleAppendChunk)
	mux.HandleFunc("POST /v1/traces/{id}/seal", s.handleSeal)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	return mux
}

type healthResponse struct {
	Status     string       `json:"status"`
	Traces     int          `json:"traces"`
	EngineRuns int64        `json:"engine_runs"`
	Workers    workerHealth `json:"workers"`
	Cache      cacheStats   `json:"cache"`
	Store      storeStats   `json:"store"`
}

type workerHealth struct {
	Total     int `json:"total"`
	Available int `json:"available"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.ids)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, healthResponse{
		Status:     "ok",
		Traces:     n,
		EngineRuns: s.engineRuns.Load(),
		Workers:    workerHealth{Total: s.cfg.MaxWorkers, Available: s.budget.available()},
		Cache:      s.store.lru.stats(),
		Store:      s.store.stats(),
	})
}

// The frame of the GET /v1/traces body around its rows, as report.EncodeJSON
// lays out {"traces": [...]}: rows are joined by listSep and a comma.
const (
	listHead = "{\n  \"traces\": ["
	listSep  = "\n    "
	listTail = "\n  ]\n}\n"
)

// listEmpty is the listing with no row.
var listEmpty = []byte("{\n  \"traces\": []\n}\n")

// handleTraces is GET /v1/traces: the selected entries' rows, in
// registration order, spliced into one body. A sealed entry's row was
// encoded with its summary; an open trace's is encoded here.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	// ?id=, ?workload=, and ?label.k= filter the listing with the same
	// glob matcher the fleet query DSL uses (fleet.NewMatcher), so the
	// two front doors agree on what "workload=ppo-*" selects. A query string
	// that does not parse is refused, not read as the pairs that did.
	params, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad trace filter query: "+err.Error())
		return
	}
	matcher, err := listFilter(params)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad trace filter: "+err.Error())
		return
	}
	s.mu.RLock()
	entries := make([]*traceEntry, 0, len(s.ids))
	for _, id := range s.ids {
		entries = append(entries, s.traces[id])
	}
	s.mu.RUnlock()
	rows := make([][]byte, 0, len(entries))
	size := len(listHead) + len(listTail)
	for _, entry := range entries {
		// An open trace has no metadata until seal: only id filters select it.
		if matcher != nil && !matcher.Match(fleet.Trace{ID: entry.id, Meta: entry.meta}) {
			continue
		}
		row := entry.row
		if entry.live != nil {
			// Outside the registry lock: the row takes the trace's own ingest
			// lock, which an in-flight append may hold.
			if row, err = encodeRow(entry.live.summary().TraceInfo); err != nil {
				writeError(w, http.StatusInternalServerError, ErrCodeAnalysisFailed, "encoding listing row: "+err.Error())
				return
			}
		}
		rows = append(rows, row)
		size += len(",") + len(listSep) + len(row)
	}
	if len(rows) == 0 {
		writeBody(w, listEmpty)
		return
	}
	body := append(make([]byte, 0, size), listHead...)
	for i, row := range rows {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(append(body, listSep...), row...)
	}
	writeBody(w, append(body, listTail...))
}

// listFilter builds a fleet matcher from GET /v1/traces query parameters.
// Every parameter whose name is a valid filter dimension participates;
// anything else is rejected so typos fail loudly rather than matching
// everything.
func listFilter(params map[string][]string) (*fleet.Matcher, error) {
	filter := map[string]string{}
	for name, vals := range params {
		if !fleet.ValidDimension(name) {
			return nil, fmt.Errorf("unknown filter parameter %q (want id, workload, or label.<key>)", name)
		}
		if len(vals) > 1 {
			return nil, fmt.Errorf("filter parameter %q repeated", name)
		}
		filter[name] = vals[0]
	}
	if len(filter) == 0 {
		return nil, nil
	}
	return fleet.NewMatcher(filter)
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	entry := s.lookup(r.PathValue("id"))
	if entry == nil {
		writeError(w, http.StatusNotFound, ErrCodeUnknownTrace, "unknown trace id")
		return
	}
	if entry.live != nil {
		writeJSON(w, http.StatusOK, entry.live.summary())
		return
	}
	writeBody(w, entry.summary)
}

// canonical is an analyze request normalized to its cache-key form:
// workers resolved to the pool size a run would actually get (<= 0 becomes
// the per-CPU default clamped to the service budget, explicit asks clamp
// to the budget — so every spelling of the same effective pool is one
// key), negative residency floored, and the process filter sorted and
// deduplicated (so [2,1] and [1,1,2] are one key).
type canonical struct {
	workers     int
	maxResident int64
	correction  bool
	procs       []trace.ProcID
	// resultOnly selects a streamed entry's result-only document. No run
	// shaped it, so only the process filter accompanies it, and its keys get
	// a prefix that keeps them disjoint from the full documents'.
	resultOnly bool
}

func (s *Server) canonicalize(req AnalyzeRequest) canonical {
	c := canonical{
		workers:    analysis.ClampWorkers(req.Workers, s.cfg.MaxWorkers),
		correction: req.Correction,
	}
	if req.MaxResidentBytes > 0 {
		c.maxResident = req.MaxResidentBytes
	}
	if len(req.Procs) > 0 {
		c.procs = slices.Clone(req.Procs)
		slices.Sort(c.procs)
		c.procs = slices.Compact(c.procs)
	}
	return c
}

// cacheKey addresses a report by content: what trace (digest) analyzed
// under what result-and-run-relevant options.
func cacheKey(digest string, c canonical) string {
	var sb strings.Builder
	sb.Grow(len(digest) + 32)
	if c.resultOnly {
		sb.WriteString("ro|")
	}
	sb.WriteString(digest)
	sb.WriteString("|w=")
	sb.WriteString(strconv.Itoa(c.workers))
	sb.WriteString("|m=")
	sb.WriteString(strconv.FormatInt(c.maxResident, 10))
	sb.WriteString("|c=")
	if c.correction {
		sb.WriteString("1")
	} else {
		sb.WriteString("0")
	}
	sb.WriteString("|p=")
	for i, p := range c.procs {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(strconv.Itoa(int(p)))
	}
	return sb.String()
}

// storeDoc encodes doc and lands it in the report store under key.
func (s *Server) storeDoc(key string, doc *report.Analysis) ([]byte, error) {
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		return nil, err
	}
	s.store.add(key, buf.Bytes())
	return buf.Bytes(), nil
}

// renderStored computes a streamed entry's result-only document from the
// result set its seal stored: per-process results are independent, so the
// requested processes of the set are what an Engine run filtered to them would
// compute. loadResults re-runs the Engine only if every tier has lost the set.
func (s *Server) renderStored(ctx context.Context, entry *traceEntry, procs []trace.ProcID, key string) ([]byte, error) {
	results, _, err := s.loadResults(ctx, entry.info.Digest, entry.dir)
	if err != nil {
		return nil, err
	}
	if len(procs) > 0 {
		all := results
		results = make(map[trace.ProcID]*overlap.Result, len(procs))
		for _, p := range procs {
			if res := all[p]; res != nil {
				results[p] = res
			}
		}
	}
	return s.storeDoc(key, report.NewResultAnalysis(entry.meta, results, false))
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	entry := s.lookup(r.PathValue("id"))
	if entry == nil {
		writeError(w, http.StatusNotFound, ErrCodeUnknownTrace, "unknown trace id")
		return
	}
	var req AnalyzeRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	if entry.live != nil {
		s.analyzeLive(w, r, entry, req)
		return
	}
	s.analyzeSealed(w, r, entry, req)
}

// analyzeSealed answers an analyze of a sealed entry: the content-addressed
// store, then one singleflight-deduplicated computation on a miss — an Engine
// run rendered as the full document, except that the uncorrected analyze of
// a streamed entry renders the result set its seal stored (renderStored). A
// corrected one is an Engine run like any other: the directory is all it needs.
func (s *Server) analyzeSealed(w http.ResponseWriter, r *http.Request, entry *traceEntry, req AnalyzeRequest) {
	if req.Correction && s.cfg.Calibration == nil {
		writeError(w, http.StatusBadRequest, ErrCodeNoCalibration, "correction requested but the server has no calibration loaded (start rlscope-serve with -calibration)")
		return
	}
	c := s.canonicalize(req)
	if entry.streamed != nil && !c.correction {
		c = canonical{procs: c.procs, resultOnly: true}
	}
	key := cacheKey(entry.info.Digest, c)

	h := w.Header()
	h["X-Rlscope-Digest"] = entry.digestHdr
	if entry.streamed != nil {
		h["X-Rlscope-State"] = stateHdr[StateSealed]
	}
	if body, ok := s.store.get(key); ok {
		// Content hit: the stored bytes answer the request with zero
		// Engine (and zero encoding) work.
		h["X-Rlscope-Cache"] = cacheHdr["hit"]
		writeBody(w, body)
		return
	}

	body, shared, err := s.flights.do(r.Context(), key, func(runCtx context.Context) ([]byte, error) {
		// A flight that lost a fill race can still answer from cache.
		if body, ok := s.store.get(key); ok {
			return body, nil
		}
		if c.resultOnly {
			return s.renderStored(runCtx, entry, c.procs, key)
		}
		// Every miss pays an Engine run, so re-digesting first is cheap
		// insurance that the report is addressed by the content actually
		// analyzed: if the directory was rewritten since registration,
		// snapshot it afresh and cache under the new digest — never new
		// bytes under the old one. Reports cached before the rewrite
		// stay addressed by the content they were computed from.
		storeKey := key
		if digest, err := trace.DirDigest(entry.dir); err != nil {
			return nil, err
		} else if digest != entry.info.Digest {
			fresh, err := newTraceEntry(entry.id, entry.dir)
			if err != nil {
				return nil, err
			}
			fresh.streamed = entry.streamed
			s.mu.Lock()
			s.traces[entry.id] = fresh
			s.mu.Unlock()
			entry = fresh
			storeKey = cacheKey(digest, c)
		}
		if s.preRun != nil {
			s.preRun(runCtx, key)
		}
		rep, err := s.run(runCtx, entry.dir, c)
		if err != nil {
			return nil, err
		}
		return s.storeDoc(storeKey, report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected))
	})
	if err != nil {
		writeRunError(w, r, "analysis", err)
		return
	}
	if shared {
		h["X-Rlscope-Cache"] = cacheHdr["dedup"]
	} else {
		h["X-Rlscope-Cache"] = cacheHdr["miss"]
	}
	writeBody(w, body)
}

// run is the server's one Engine call. It holds c.workers of the global
// budget for the run's duration (admission), counts the run, and analyzes
// dir through FromDir, which opens a Reader of its own per run — a
// trace.Reader is not safe for concurrent use. Callers encode the document
// they serve.
func (s *Server) run(ctx context.Context, dir string, c canonical) (*analysis.Report, error) {
	if err := s.budget.acquire(ctx, c.workers); err != nil {
		return nil, err
	}
	defer s.budget.release(c.workers)

	s.engineRuns.Add(1)
	opts := []analysis.EngineOption{
		analysis.WithWorkers(c.workers),
		analysis.WithMaxResidentBytes(c.maxResident),
		analysis.WithProcesses(c.procs...),
	}
	if c.correction {
		opts = append(opts, analysis.WithCorrection(s.cfg.Calibration))
	}
	return analysis.NewEngine(opts...).Analyze(ctx, analysis.FromDir(dir))
}

// writeRunError reports a failed Engine-backed request (what is "analysis"
// or "query"): 503 analysis_aborted when the run was cancelled, 500
// analysis_failed otherwise, and nothing when the client itself is gone.
func writeRunError(w http.ResponseWriter, r *http.Request, what string, err error) {
	switch {
	case r.Context().Err() != nil:
		// The client is gone; nothing useful can be written.
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, ErrCodeAnalysisAborted, what+" aborted: "+err.Error())
	default:
		writeError(w, http.StatusInternalServerError, ErrCodeAnalysisFailed, what+" failed: "+err.Error())
	}
}

// Header values the handlers write straight into the header map, under
// net/http's canonical key spelling: Header.Set would allocate a fresh slice
// for each. They are shared by every response, so never modified.
var (
	jsonHdr  = []string{"application/json"}
	cacheHdr = map[string][]string{"hit": {"hit"}, "miss": {"miss"}, "dedup": {"dedup"}}
	stateHdr = map[string][]string{StateOpen: {StateOpen}, StateSealed: {StateSealed}}
)

// writeBody answers 200 with stored JSON bytes.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonHdr
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonHdr
	w.WriteHeader(status)
	report.EncodeJSON(w, v)
}

// maxJSONBytes bounds the body of every route that takes a JSON one.
const maxJSONBytes = 1 << 20

// readJSON is the one JSON body reader: it decodes r's body into v, which
// must be one JSON value with no field v lacks and nothing but white space
// after it. An empty body leaves v zero when emptyOK. Otherwise it writes
// bad_request — 413 for a body over maxJSONBytes, 400 for anything else —
// and reports false.
func readJSON(w http.ResponseWriter, r *http.Request, v any, emptyOK bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Token answers io.EOF, allocating nothing, exactly when only white
		// space follows the value.
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	} else if err == io.EOF && emptyOK {
		return true
	}
	// Declared past the returns: errors.As moves it to the heap.
	var tooBig *http.MaxBytesError
	status := http.StatusBadRequest
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, ErrCodeBadRequest, "bad request body: "+err.Error())
	return false
}

// Stable machine-readable error codes. Every /v1 error body is the
// envelope {"error":{"code","message"}}; code is part of the API contract
// (clients branch on it — see client.APIError), message is human-oriented
// and free to change. The full table lives in DESIGN.md §9.
const (
	ErrCodeUnknownTrace          = "unknown_trace"
	ErrCodeInvalidTraceID        = "invalid_trace_id"
	ErrCodeBadRequest            = "bad_request"
	ErrCodeNoCalibration         = "no_calibration"
	ErrCodeAnalysisAborted       = "analysis_aborted"
	ErrCodeAnalysisFailed        = "analysis_failed"
	ErrCodeOutOfOrderSeq         = "out_of_order_sequence"
	ErrCodeChunkConflict         = "chunk_conflict"
	ErrCodeTraceSealed           = "trace_sealed"
	ErrCodeTraceExists           = "trace_exists"
	ErrCodeBadChunk              = "bad_chunk"
	ErrCodeIngestDisabled        = "ingest_disabled"
	ErrCodeCorrectionUnsupported = "correction_unsupported"
)

// ErrorEnvelope is the wire form of every /v1 error response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's payload: a stable code plus a human message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError carries an error through handler helpers with its HTTP status
// and envelope code attached.
type apiError struct {
	status int
	code   string
	msg    string
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	writeError(w, e.status, e.code, e.msg)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}
