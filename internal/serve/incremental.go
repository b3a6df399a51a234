// Live trace ingest: the write path of rlscope-serve. Profilers stream
// sequence-numbered chunk frames into a server-owned trace store
// (POST /v1/traces/{id}/chunks, finalized by POST /v1/traces/{id}/seal),
// and analysis of a live trace is incremental — one resident
// analysis.Incremental per open trace, advanced in epochs, so a report
// after a new chunk costs O(chunk), not O(trace).
//
// Concurrency follows ddtxn's coordinator/worker epoch design: appends are
// the workers, enqueueing decoded chunks under a light pending lock and
// returning immediately; the next analyze call is the coordinator, draining
// everything pending as ONE epoch under the per-trace analysis lock and
// re-sweeping only the (proc, window) shards the epoch's events touched.
// Appends arriving during an analysis are never lost and never block it —
// they land in the next epoch.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
)

// maxChunkBytes bounds one ingest request body; the profiler flushes ~1 MiB
// chunks (trace.DefaultChunkBytes), so 64 MiB is generous headroom.
const maxChunkBytes = 64 << 20

// Trace lifecycle states reported in TraceInfo.State.
const (
	// StateOpen marks a live trace still accepting chunks.
	StateOpen = "open"
	// StateSealed marks a finalized trace: registered directories are
	// sealed by construction, live traces become sealed at /seal.
	StateSealed = "sealed"
)

// liveTrace is one live-ingested trace: the durable side (a DirSink landing
// frames in the store) plus the resident analysis state.
type liveTrace struct {
	id   string
	sink *trace.DirSink

	// pmu guards the ingest side: sink ordering, the pending epoch queue,
	// and the sidecar-index fold the summary endpoint reads.
	pmu     sync.Mutex
	pending [][]trace.Event
	indexes []*trace.ChunkIndex

	// amu guards the analysis side: the incremental state, the sealed run
	// metadata, and the encoded-document cache. Epoch application and
	// result reads are serialized per trace; appends are not (they only
	// touch the pending queue).
	amu        sync.Mutex
	inc        *analysis.Incremental
	meta       trace.Meta
	hasMeta    bool
	lastDigest string
	lastProcs  string
	lastBody   []byte
	// finalStats preserves the incremental counters after sealing evicts
	// the resident state (inc == nil): the trace is immutable from then
	// on, so the counters are final.
	finalStats analysis.IncrementalStats
}

// AppendResponse is the POST /v1/traces/{id}/chunks response body.
type AppendResponse struct {
	ID string `json:"id"`
	// Seq echoes the applied sequence number; Chunks is the trace's chunk
	// count after the append.
	Seq    int `json:"seq"`
	Chunks int `json:"chunks"`
	// Digest is the content digest of the trace so far — the same value
	// DirDigest will report for the directory once sealed.
	Digest string `json:"digest"`
	// Duplicate reports an idempotent retry: the sequence number had
	// already been applied with identical content and nothing was written.
	Duplicate bool `json:"duplicate,omitempty"`
}

// SealResponse is the POST /v1/traces/{id}/seal response body.
type SealResponse struct {
	ID     string `json:"id"`
	Chunks int    `json:"chunks"`
	Digest string `json:"digest"`
}

// liveLookup returns the live trace registered under id, if any.
func (s *Server) liveLookup(id string) *liveTrace {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lives[id]
}

// openLive returns the live trace for id, creating it on first use
// (create-on-first-write: the first chunk append — or an explicit
// POST /v1/traces — brings the trace into existence). A trace id already
// registered as a read-only directory cannot be appended to, and creation
// requires the server to have a trace store configured.
func (s *Server) openLive(id string) (lt *liveTrace, created bool, apiErr *apiError) {
	if !validTraceID(id) {
		return nil, false, &apiError{http.StatusBadRequest, ErrCodeInvalidTraceID,
			fmt.Sprintf("invalid trace id %q: want [A-Za-z0-9][A-Za-z0-9._-]*, no %q", id, "..")}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lt := s.lives[id]; lt != nil {
		return lt, false, nil
	}
	if _, ok := s.traces[id]; ok {
		return nil, false, &apiError{http.StatusConflict, ErrCodeTraceExists,
			fmt.Sprintf("trace %q is registered read-only; live chunks cannot be appended to it", id)}
	}
	if s.cfg.StoreDir == "" {
		return nil, false, &apiError{http.StatusForbidden, ErrCodeIngestDisabled,
			"live ingest is disabled: rlscope-serve was started without -store"}
	}
	sink, err := trace.NewDirSink(filepath.Join(s.cfg.StoreDir, id))
	if err != nil {
		return nil, false, &apiError{http.StatusConflict, ErrCodeTraceExists,
			fmt.Sprintf("creating trace store dir: %v", err)}
	}
	lt = &liveTrace{id: id, sink: sink, inc: analysis.NewIncremental()}
	s.lives[id] = lt
	s.liveIDs = append(s.liveIDs, id)
	return lt, true, nil
}

// CreateTraceRequest is the POST /v1/traces body.
type CreateTraceRequest struct {
	ID string `json:"id"`
}

// handleCreateTrace is POST /v1/traces: explicitly open a live trace.
// Creation is also implicit on the first chunk append; this endpoint
// exists so a client can reserve the id (and learn about collisions with
// registered traces) before streaming. Opening an already-open trace is a
// 200 no-op; a fresh open is a 201.
func (s *Server) handleCreateTrace(w http.ResponseWriter, r *http.Request) {
	var req CreateTraceRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad create request: "+err.Error())
		return
	}
	lt, created, apiErr := s.openLive(req.ID)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, lt.liveInfo())
}

// validTraceID accepts ids safe to use as store directory names: one path
// segment, no traversal, no whitespace.
func validTraceID(id string) bool {
	if id == "" || strings.Contains(id, "..") {
		return false
	}
	for i, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && (r == '.' || r == '_' || r == '-'):
		default:
			return false
		}
	}
	return true
}

// handleAppendChunk is POST /v1/traces/{id}/chunks?seq=N: the request body
// is one encoded chunk frame, whatever its Content-Type. The server decodes
// the chunk and derives the sidecar itself, so nothing a client sends beside
// the frame can skew the stored trace or the incremental analysis.
func (s *Server) handleAppendChunk(w http.ResponseWriter, r *http.Request) {
	seqStr := r.URL.Query().Get("seq")
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq < 0 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Sprintf("chunk append needs a non-negative ?seq parameter, got %q", seqStr))
		return
	}
	chunk, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxChunkBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "reading chunk body: "+err.Error())
		return
	}
	// An append the sink is certain to refuse — the trace is sealed, or seq
	// lies beyond its next — is refused here, before the frame is decoded,
	// indexed and marshalled for nothing. The sink's own check under pmu
	// stays the authority; a trace that does not exist yet has nothing to
	// ask, so an undecodable first chunk still creates no trace.
	if lt := s.liveLookup(r.PathValue("id")); lt != nil {
		if lt.sink.Sealed() {
			writeAPIError(w, ingestError(trace.ErrSinkSealed))
			return
		}
		if next := lt.sink.Chunks(); seq > next {
			writeAPIError(w, ingestError(&trace.SeqError{Seq: seq, Next: next}))
			return
		}
	}
	// DecodeChunkBytes sniffs the frame's version, so live ingest accepts
	// v1 and v2 chunks alike — the store lands whatever frame the client
	// sent, byte-for-byte, while the analysis sees decoded events.
	events, err := trace.DecodeChunkBytes(chunk, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadChunk, "undecodable chunk frame: "+err.Error())
		return
	}
	index := trace.BuildChunkIndex(events, int64(len(chunk)))
	sidecar, err := index.AppendBinary(nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeAnalysisFailed, "encoding sidecar: "+err.Error())
		return
	}

	lt, _, apiErr := s.openLive(r.PathValue("id"))
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}

	// Apply under the ingest lock so the sink's sequence order and the
	// pending queue's order are the same order: the epoch the coordinator
	// later drains replays chunks exactly as they landed on disk.
	lt.pmu.Lock()
	dup, err := lt.sink.Append(seq, chunk, sidecar)
	if err == nil && !dup {
		lt.pending = append(lt.pending, events)
		lt.indexes = append(lt.indexes, index)
	}
	chunks := lt.sink.Chunks()
	digest := lt.sink.Digest()
	lt.pmu.Unlock()
	if err != nil {
		writeAPIError(w, ingestError(err))
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		ID: lt.id, Seq: seq, Chunks: chunks, Digest: digest, Duplicate: dup,
	})
}

// ingestError maps sink errors onto the API error vocabulary.
func ingestError(err error) *apiError {
	var seqErr *trace.SeqError
	var conflict *trace.ConflictError
	switch {
	case errors.As(err, &seqErr):
		return &apiError{http.StatusConflict, ErrCodeOutOfOrderSeq,
			fmt.Sprintf("chunk seq %d out of order: next expected %d", seqErr.Seq, seqErr.Next)}
	case errors.As(err, &conflict):
		return &apiError{http.StatusConflict, ErrCodeChunkConflict,
			fmt.Sprintf("chunk seq %d was already applied with different content", conflict.Seq)}
	case errors.Is(err, trace.ErrSinkSealed):
		return &apiError{http.StatusConflict, ErrCodeTraceSealed, "trace is sealed; no further appends accepted"}
	default:
		return &apiError{http.StatusInternalServerError, ErrCodeAnalysisFailed, err.Error()}
	}
}

// handleSeal is POST /v1/traces/{id}/seal: the body is the run's trace.Meta
// (an empty body seals with zero metadata). Sealing writes meta.json, fixes
// the trace's content digest, and upgrades analysis documents from
// provisional (empty workload, default process names) to final.
func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	lt := s.liveLookup(r.PathValue("id"))
	if lt == nil {
		writeError(w, http.StatusNotFound, ErrCodeUnknownTrace, "unknown live trace id")
		return
	}
	var meta trace.Meta
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&meta); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad seal body: "+err.Error())
		return
	}
	// Take the analysis lock across the seal so no analyze encodes a
	// sealed-digest document with pre-seal metadata.
	lt.amu.Lock()
	err := lt.sink.Seal(meta)
	if err == nil {
		lt.meta = meta
		lt.hasMeta = true
		s.evictSealed(lt)
	}
	lt.amu.Unlock()
	if err != nil {
		writeAPIError(w, ingestError(err))
		return
	}
	writeJSON(w, http.StatusOK, SealResponse{ID: lt.id, Chunks: lt.sink.Chunks(), Digest: lt.sink.Digest()})
}

// evictSealed retires a just-sealed trace's resident incremental state.
// A sealed trace is immutable, so its analysis is computed once, here:
// any still-pending chunks are drained as the final epoch, the final
// result-only document is cached under the final digest (repeated
// analyzes keep costing zero Engine runs), the full-fidelity result set
// lands in the report store for fleet queries, and the Incremental —
// which holds every decoded event resident — is dropped. Called with
// lt.amu held, immediately after a successful sink.Seal.
func (s *Server) evictSealed(lt *liveTrace) {
	lt.pmu.Lock()
	batch := lt.pending
	lt.pending = nil
	digest := lt.sink.Digest()
	lt.pmu.Unlock()
	if len(batch) > 0 {
		lt.inc.Apply(batch)
	}
	results := lt.inc.Results(nil)
	lt.lastBody = nil // cached doc predates the seal metadata
	doc := report.NewResultAnalysis(lt.meta, results, false)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err == nil {
		lt.lastBody = buf.Bytes()
		lt.lastDigest = digest
		lt.lastProcs = ""
	}
	var rsBuf bytes.Buffer
	if err := report.EncodeResultSet(&rsBuf, results); err == nil {
		s.store.add(ResultSetKey(digest), rsBuf.Bytes())
	}
	lt.finalStats = lt.inc.Stats()
	lt.inc = nil
}

// analyzeLive answers POST /v1/traces/{id}/analyze for a live-ingested
// trace. It drains every pending chunk as one analysis epoch, re-sweeps
// only the shards the epoch dirtied, and serves the result-only document
// (no run-descriptive stats block — an incremental state has no single
// "run" to describe). The encoded document is cached per (digest, procs);
// a quiescent trace answers repeated analyzes from the cached bytes.
//
// Correction is not supported on the live path: a correction stage rewrites
// events before routing, which would require the calibration at ingest
// time. Clients needing a corrected report seal the trace and register the
// directory.
func (s *Server) analyzeLive(w http.ResponseWriter, r *http.Request, lt *liveTrace, req AnalyzeRequest) {
	if req.Correction {
		writeError(w, http.StatusBadRequest, ErrCodeCorrectionUnsupported,
			"correction is not supported on live-ingested traces; seal the trace and register the directory instead")
		return
	}
	c := s.canonicalize(req)

	lt.amu.Lock()
	defer lt.amu.Unlock()

	// Coordinator step: everything appended since the last epoch becomes
	// this epoch, applied in landing order.
	lt.pmu.Lock()
	batch := lt.pending
	lt.pending = nil
	digest := lt.sink.Digest()
	lt.pmu.Unlock()
	if len(batch) > 0 && lt.inc != nil {
		lt.inc.Apply(batch)
	}

	procsKey := procsKey(c.procs)
	state := StateOpen
	if lt.sink.Sealed() {
		state = StateSealed
	}
	w.Header().Set("X-RLScope-Digest", digest)
	w.Header().Set("X-RLScope-State", state)
	if lt.lastBody != nil && lt.lastDigest == digest && lt.lastProcs == procsKey {
		w.Header().Set("X-RLScope-Cache", "hit")
		writeBody(w, lt.lastBody)
		return
	}

	var filter map[trace.ProcID]bool
	if len(c.procs) > 0 {
		filter = make(map[trace.ProcID]bool, len(c.procs))
		for _, p := range c.procs {
			filter[p] = true
		}
	}
	var results map[trace.ProcID]*overlap.Result
	if lt.inc != nil {
		results = lt.inc.Results(filter)
	} else {
		// Sealing evicted the resident state, cached the unfiltered final
		// document above, and stored the trace's full result set; reaching
		// here means a different process filter. Per-process results are
		// independent, so the requested processes of the stored set are
		// what an Engine run filtered to them would compute.
		all, _, err := s.LoadResults(r.Context(), digest, lt.sink.Dir())
		if err != nil {
			writeRunError(w, r, "analysis", err)
			return
		}
		results = all
		if filter != nil {
			results = make(map[trace.ProcID]*overlap.Result, len(filter))
			for p := range filter {
				if res := all[p]; res != nil {
					results[p] = res
				}
			}
		}
	}
	doc := report.NewResultAnalysis(lt.meta, results, false)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeAnalysisFailed, "encoding report: "+err.Error())
		return
	}
	lt.lastBody = buf.Bytes()
	lt.lastDigest = digest
	lt.lastProcs = procsKey
	w.Header().Set("X-RLScope-Cache", "miss")
	writeBody(w, lt.lastBody)
}

// procsKey is the canonical cache-key spelling of a process filter.
func procsKey(procs []trace.ProcID) string {
	var sb strings.Builder
	for i, p := range procs {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(strconv.Itoa(int(p)))
	}
	return sb.String()
}

// liveInfo snapshots a live trace's identity row.
func (lt *liveTrace) liveInfo() TraceInfo {
	lt.pmu.Lock()
	indexes := lt.indexes
	chunks := lt.sink.Chunks()
	digest := lt.sink.Digest()
	sealed := lt.sink.Sealed()
	lt.pmu.Unlock()
	procs := map[trace.ProcID]bool{}
	events := 0
	for _, ix := range indexes {
		events += ix.Events
		for p := range ix.Procs {
			procs[p] = true
		}
	}
	info := TraceInfo{
		ID: lt.id, Digest: digest, Chunks: chunks, Events: events,
		Procs: len(procs), State: StateOpen,
	}
	if sealed {
		info.State = StateSealed
	}
	lt.amu.Lock()
	info.Workload = lt.meta.Workload
	info.Host = lt.meta.Host
	info.Labels = lt.meta.Labels
	lt.amu.Unlock()
	return info
}

// handleLiveSummary answers GET /v1/traces/{id}/summary for a live trace
// from the sidecar indexes folded at append time — the same derivation
// registered directories get at AddDir, over the chunks landed so far.
func (s *Server) handleLiveSummary(w http.ResponseWriter, lt *liveTrace) {
	lt.pmu.Lock()
	indexes := make([]*trace.ChunkIndex, len(lt.indexes))
	copy(indexes, lt.indexes)
	lt.pmu.Unlock()
	lt.amu.Lock()
	meta := lt.meta
	lt.amu.Unlock()
	sum := buildSummary(indexes, meta)
	sum.TraceInfo = lt.liveInfo()
	writeJSON(w, http.StatusOK, sum)
}

// IncrementalStats reports the incremental-analysis counters of a live
// trace — the instrumented ground truth that appending one chunk re-sweeps
// only the windows it lands in, whatever the trace's length. ok is false if
// id is not a live trace.
func (s *Server) IncrementalStats(id string) (stats analysis.IncrementalStats, ok bool) {
	lt := s.liveLookup(id)
	if lt == nil {
		return analysis.IncrementalStats{}, false
	}
	lt.amu.Lock()
	defer lt.amu.Unlock()
	if lt.inc == nil {
		return lt.finalStats, true
	}
	return lt.inc.Stats(), true
}
