// Package serve implements rlscope-serve: a long-running HTTP/JSON service
// answering RL-Scope analysis queries over a repository of trace
// directories — registered read-only (AddDir) or streamed in live over
// POST /v1/traces/{id}/chunks (see incremental.go). It is the step from
// one-shot CLI analysis to shared infrastructure: reports are cached by
// content — the trace directory's DirDigest plus the canonicalized
// analysis options — in a bounded LRU, so repeated queries cost a map
// lookup; concurrent identical queries collapse into one Engine run via
// singleflight; a global worker budget bounds the total Engine parallelism
// the service spends at once, however many clients are connected; and live
// traces are analyzed incrementally, so a report after a new chunk costs
// O(chunk) instead of O(trace).
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/calib"
	"repro/internal/fleet"
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
	// ReportDir, when set, adds a persistent content-addressed report
	// store under the LRU: encoded reports land on disk keyed by (digest,
	// canonical options), so cache warmth survives restarts and a fleet
	// of servers sharing one directory share one store. Empty keeps the
	// cache in-memory only.
	ReportDir string
}

// DefaultCacheBytes is the report-cache budget selected by Config.CacheBytes <= 0.
const DefaultCacheBytes = 64 << 20

// Server is the service state: the registered traces, the report cache,
// the singleflight group, and the admission budget. Register traces with
// AddDir, mount Handler on an http.Server, and Close on shutdown to abort
// any still-running analyses.
type Server struct {
	cfg     Config
	baseCtx context.Context
	stop    context.CancelFunc

	mu      sync.RWMutex
	traces  map[string]*traceEntry
	ids     []string // registration order
	lives   map[string]*liveTrace
	liveIDs []string // first-write order

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

// traceEntry is an immutable snapshot of one registered directory's
// content. When a miss-path analysis discovers the directory's digest has
// changed since the snapshot was taken, a fresh entry replaces it in the
// registry; handlers holding the old pointer keep a consistent (if stale)
// read-only view.
type traceEntry struct {
	id   string
	info TraceInfo
	dir  string
	meta trace.Meta
	// summary is the encoded TraceSummary: the entry never changes, so
	// GET /summary serves these bytes instead of re-rendering them.
	summary []byte
}

// TraceInfo is one registered trace's identity row (GET /v1/traces).
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
	// State is "sealed" for finalized traces (every registered directory,
	// and live traces after /seal) and "open" for live traces still
	// accepting chunks.
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

// NewServer builds a Server from cfg. Call Close when done with it. An
// unusable ReportDir is reported by falling back to the in-memory tier
// alone — use NewServerStrict when a missing store must be an error.
func NewServer(cfg Config) *Server {
	s, _ := NewServerStrict(cfg)
	return s
}

// NewServerStrict is NewServer, but a ReportDir that cannot be created is
// returned as an error alongside the (LRU-only) server.
func NewServerStrict(cfg Config) (*Server, error) {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = analysis.DefaultWorkers()
	}
	ctx, cancel := context.WithCancel(context.Background())
	store := &tieredStore{lru: newReportCache(cfg.CacheBytes)}
	var err error
	if cfg.ReportDir != "" {
		store.disk, err = NewDiskStore(cfg.ReportDir)
	}
	return &Server{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    cancel,
		traces:  map[string]*traceEntry{},
		lives:   map[string]*liveTrace{},
		store:   store,
		flights: newFlightGroup(ctx),
		budget:  newWorkerBudget(cfg.MaxWorkers),
	}, err
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
	if id == "" || strings.ContainsAny(id, "/ \t\n") {
		return TraceInfo{}, fmt.Errorf("serve: invalid trace id %q", id)
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
	if _, ok := s.lives[id]; ok {
		return TraceInfo{}, fmt.Errorf("serve: trace id %q already exists as a live trace", id)
	}
	s.traces[id] = entry
	s.ids = append(s.ids, id)
	return entry.info, nil
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
	meta := r.Meta()
	indexes := make([]*trace.ChunkIndex, r.NumChunks())
	for i := range indexes {
		// A missing sidecar falls back to a one-off chunk decode inside
		// Index, so pre-sidecar directories still register.
		if indexes[i], err = r.Index(i); err != nil {
			return nil, err
		}
	}
	summary := buildSummary(indexes, meta)
	summary.ID = id
	summary.Digest = digest
	summary.Workload = meta.Workload
	summary.Host = meta.Host
	summary.Labels = meta.Labels
	summary.State = StateSealed
	var body bytes.Buffer
	if err := encodeJSON(&body, summary); err != nil {
		return nil, fmt.Errorf("serve: encoding summary of %s: %w", dir, err)
	}
	return &traceEntry{id: id, info: summary.TraceInfo, dir: dir, meta: meta, summary: body.Bytes()}, nil
}

// buildSummary derives a trace summary from sidecar indexes alone — no
// chunk is decoded. Both registration (all indexes of a complete
// directory) and the live-ingest summary endpoint (the indexes landed so
// far) feed it; the caller fills the TraceInfo identity fields it knows.
func buildSummary(indexes []*trace.ChunkIndex, meta trace.Meta) *TraceSummary {
	type span struct {
		events   int
		min, max int64
	}
	spans := map[trace.ProcID]*span{}
	phaseNames := map[string]bool{}
	totalEvents := 0
	for _, ix := range indexes {
		totalEvents += ix.Events
		for p, sp := range ix.Procs {
			agg, ok := spans[p]
			if !ok {
				agg = &span{min: int64(sp.MinStart), max: int64(sp.MaxEnd)}
				spans[p] = agg
			}
			if int64(sp.MinStart) < agg.min {
				agg.min = int64(sp.MinStart)
			}
			if int64(sp.MaxEnd) > agg.max {
				agg.max = int64(sp.MaxEnd)
			}
			agg.events += sp.Events
		}
		for _, e := range ix.Phases {
			phaseNames[e.Name] = true
		}
	}
	// List every process the metadata or the chunks know about: metadata
	// names processes, chunks prove they produced events.
	procSet := map[trace.ProcID]bool{}
	for p := range meta.Procs {
		procSet[p] = true
	}
	for p := range spans {
		procSet[p] = true
	}
	procs := make([]trace.ProcID, 0, len(procSet))
	for p := range procSet {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })

	sum := &TraceSummary{
		TraceInfo: TraceInfo{Chunks: len(indexes), Events: totalEvents, Procs: len(procs)},
		Config:    meta.Config,
		Tree:      report.TreeJSON(meta),
	}
	for _, p := range procs {
		info := meta.Procs[p]
		name := info.Name
		if name == "" {
			name = fmt.Sprintf("proc%d", p)
		}
		ps := ProcSummary{Proc: p, Name: name, Parent: info.Parent}
		if agg := spans[p]; agg != nil {
			ps.Events, ps.MinStart, ps.MaxEnd = agg.events, agg.min, agg.max
		}
		sum.Processes = append(sum.Processes, ps)
	}
	for name := range phaseNames {
		sum.Phases = append(sum.Phases, name)
	}
	sort.Strings(sum.Phases)
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
	n := len(s.ids) + len(s.liveIDs)
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

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	// ?id=, ?workload=, and ?label.k= filter the listing with the same
	// glob matcher the fleet query DSL uses (fleet.NewMatcher), so the
	// two front doors agree on what "workload=ppo-*" selects.
	matcher, err := listFilter(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad trace filter: "+err.Error())
		return
	}
	s.mu.RLock()
	entries := make([]*traceEntry, 0, len(s.ids))
	for _, id := range s.ids {
		entries = append(entries, s.traces[id])
	}
	lives := make([]*liveTrace, 0, len(s.liveIDs))
	for _, id := range s.liveIDs {
		lives = append(lives, s.lives[id])
	}
	s.mu.RUnlock()
	infos := make([]TraceInfo, 0, len(entries)+len(lives))
	for _, entry := range entries {
		if matcher == nil || matcher.Match(fleet.Trace{ID: entry.id, Meta: entry.meta}) {
			infos = append(infos, entry.info)
		}
	}
	// Live rows are snapshotted outside the registry lock: each one takes
	// its trace's own ingest lock, which an in-flight append may hold.
	for _, lt := range lives {
		info := lt.liveInfo()
		if matcher == nil || matcher.Match(fleet.Trace{ID: info.ID, Meta: trace.Meta{Workload: info.Workload, Host: info.Host, Labels: info.Labels}}) {
			infos = append(infos, info)
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []TraceInfo `json:"traces"`
	}{infos})
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
	id := r.PathValue("id")
	entry := s.lookup(id)
	if entry == nil {
		if lt := s.liveLookup(id); lt != nil {
			s.handleLiveSummary(w, lt)
			return
		}
		writeError(w, http.StatusNotFound, ErrCodeUnknownTrace, "unknown trace id")
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

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry := s.lookup(id)
	var live *liveTrace
	if entry == nil {
		if live = s.liveLookup(id); live == nil {
			writeError(w, http.StatusNotFound, ErrCodeUnknownTrace, "unknown trace id")
			return
		}
	}
	var req AnalyzeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	// io.EOF means an empty body — legal, meaning "all defaults".
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad analyze request: "+err.Error())
		return
	}
	if live != nil {
		s.analyzeLive(w, r, live, req)
		return
	}
	if req.Correction && s.cfg.Calibration == nil {
		writeError(w, http.StatusBadRequest, ErrCodeNoCalibration, "correction requested but the server has no calibration loaded (start rlscope-serve with -calibration)")
		return
	}
	c := s.canonicalize(req)
	key := cacheKey(entry.info.Digest, c)

	w.Header().Set("X-RLScope-Digest", entry.info.Digest)
	if body, ok := s.store.get(key); ok {
		// Content hit: the stored bytes answer the request with zero
		// Engine (and zero encoding) work.
		w.Header().Set("X-RLScope-Cache", "hit")
		writeBody(w, body)
		return
	}

	body, shared, err := s.flights.do(r.Context(), key, func(runCtx context.Context) ([]byte, error) {
		// A flight that lost a fill race can still answer from cache.
		if body, ok := s.store.get(key); ok {
			return body, nil
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
		doc := report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected)
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			return nil, err
		}
		body := buf.Bytes()
		s.store.add(storeKey, body)
		return body, nil
	})
	if err != nil {
		writeRunError(w, r, "analysis", err)
		return
	}
	if shared {
		w.Header().Set("X-RLScope-Cache", "dedup")
	} else {
		w.Header().Set("X-RLScope-Cache", "miss")
	}
	writeBody(w, body)
}

// run is the server's one Engine call. It holds c.workers of the global
// budget for the run's duration (admission), counts the run, and analyzes
// dir through a fresh Source — trace.Reader is not safe for concurrent use,
// so runs never share one. Callers encode the document they serve.
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
	return analysis.NewEngine(opts...).Analyze(ctx, trace.FromDir(dir))
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

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeJSON(w, v)
}

// encodeJSON is the one spelling of the service's JSON: two-space indent,
// no HTML escaping, trailing newline.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
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
