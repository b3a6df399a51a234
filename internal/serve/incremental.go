// Live trace ingest: the write path of rlscope-serve, and the open state of
// a trace. Profilers stream sequence-numbered chunk frames into a server-owned
// store (POST /v1/traces/{id}/chunks) and POST /v1/traces/{id}/seal promotes
// the trace to a sealed entry. While open it is analyzed incrementally, in
// ddtxn's coordinator/worker epochs: appends enqueue decoded chunks under a
// light pending lock and return; the next analyze drains everything pending
// as ONE epoch under the per-trace analysis lock and re-sweeps only the
// (proc, window) shards it touched — O(chunk), not O(trace). Appends arriving
// during an analysis are never lost and never block it.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
)

// maxChunkBytes bounds one ingest request body; the profiler flushes ~1 MiB
// chunks (trace.DefaultChunkBytes), so 64 MiB is generous headroom. A body
// over it is 413 bad_request: refused before a byte is read when its
// Content-Length says so, and as soon as the bytes pass it when it has none.
const maxChunkBytes = 64 << 20

// Trace lifecycle states reported in TraceInfo.State: open while the trace
// accepts chunks, sealed from /seal on — and from AddDir on, by construction.
const (
	StateOpen   = "open"
	StateSealed = "sealed"
)

// liveTrace is the open state of a traceEntry: the durable side (a DirSink
// landing frames in the store) plus the resident analysis state. Seal builds
// the entry's sealed state from it and drops it whole.
type liveTrace struct {
	id   string
	sink *trace.DirSink

	// pmu guards the ingest side: sink ordering, the pending epoch queue,
	// and what listing and summary read: the digest as of the last append
	// and the sidecar fold. They never ask the sink, so a trace reads as
	// open, with its last open digest, until seal swaps it out.
	pmu     sync.Mutex
	pending [][]trace.Event
	digest  string
	fold    summaryFold

	// amu guards the analysis side: the incremental state, the one-slot
	// document cache and sealed. Epoch application and result reads are
	// serialized per trace; appends, listings and summaries never take it.
	amu        sync.Mutex
	inc        *analysis.Incremental
	lastDigest string
	lastProcs  []trace.ProcID
	lastBody   storedBody
	sealed     *traceEntry // the entry the seal swapped in for this one
}

// drain is the coordinator step: everything appended since the last epoch
// becomes this epoch, applied in landing order. Apply copies the events into
// the windows, so the chunk buffers then go back to trace.EventBufs, and
// the queue's own array back to the queue if no append has started a new
// one. It returns the digest the epoch brings the analysis up to. amu held.
func (lt *liveTrace) drain() (digest string) {
	lt.pmu.Lock()
	batch := lt.pending
	lt.pending, digest = nil, lt.digest
	lt.pmu.Unlock()
	if len(batch) == 0 {
		return digest
	}
	lt.inc.Apply(batch)
	for i, events := range batch {
		putEvents(events)
		batch[i] = nil
	}
	lt.pmu.Lock()
	if lt.pending == nil {
		lt.pending = batch[:0]
	}
	lt.pmu.Unlock()
	return digest
}

// putEvents hands a chunk buffer back to trace.EventBufs, cleared to its
// capacity — a failed decode may have written past the length it returned —
// so an idle buffer holds no name alive. An epoch hands the buffers of its
// chunks back once Apply has copied their events, and a refused, duplicate
// or undecodable append its buffer at once.
func putEvents(events []trace.Event) {
	clear(events[:cap(events)])
	trace.EventBufs.Put(events)
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

// openLive returns the open trace for id, creating it on first use (the
// first chunk append, or an explicit POST /v1/traces). A sealed id cannot be
// appended to, and creation requires a configured trace store.
func (s *Server) openLive(id string) (lt *liveTrace, created bool, apiErr *apiError) {
	if err := checkTraceID(id); err != nil {
		return nil, false, &apiError{http.StatusBadRequest, ErrCodeInvalidTraceID, err.Error()}
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if entry := s.reg.Load().byID[id]; entry != nil {
		return entry.live, false, entry.appendRefusal()
	}
	if s.cfg.StoreDir == "" {
		return nil, false, &apiError{http.StatusForbidden, ErrCodeIngestDisabled,
			"live ingest is disabled: rlscope-serve was started without -store"}
	}
	// A directory already holding a trace is an id collision; any other
	// failure is the store's, a 500. Neither names where the store lives.
	sink, err := trace.NewDirSinkFS(s.fs, filepath.Join(s.cfg.StoreDir, id))
	if errors.Is(err, trace.ErrDirHasTrace) {
		return nil, false, &apiError{http.StatusConflict, ErrCodeTraceExists,
			fmt.Sprintf("trace %q already has files in the trace store", id)}
	}
	if err != nil {
		return nil, false, storeFailed(id, err)
	}
	lt = &liveTrace{id: id, sink: sink, inc: analysis.NewIncremental()}
	s.setEntry(&traceEntry{id: id, live: lt})
	return lt, true, nil
}

// appendRefusal is why e takes no more chunks and no seal: nil while it is
// open, trace_sealed once the seal of a streamed trace has promoted it,
// trace_exists for a directory registered read-only.
func (e *traceEntry) appendRefusal() *apiError {
	if e.live != nil {
		return nil
	}
	if e.streamed != nil {
		return ingestError(e.id, trace.ErrSinkSealed)
	}
	return &apiError{http.StatusConflict, ErrCodeTraceExists,
		fmt.Sprintf("trace %q is registered read-only; live chunks cannot be appended to it", e.id)}
}

// CreateTraceRequest is the POST /v1/traces body.
type CreateTraceRequest struct {
	ID string `json:"id"`
}

// handleCreateTrace is POST /v1/traces: reserve an id (and learn about
// collisions) before streaming; the first chunk append creates implicitly.
// Opening an already-open trace is a 200 no-op; a fresh open is a 201.
func (s *Server) handleCreateTrace(w http.ResponseWriter, r *http.Request) {
	var req CreateTraceRequest
	if !readJSON(w, r, &req, false) {
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
	writeJSON(w, status, lt.summary().TraceInfo)
}

// maxTraceIDBytes bounds a trace id: it names the trace's store directory,
// and file systems refuse a longer name (ENAMETOOLONG).
const maxTraceIDBytes = 255

// checkTraceID is the one trace-id rule, for live ingest and AddDir alike:
// an id is safe as a store directory name and as a URL path segment — one
// segment of at most maxTraceIDBytes, no traversal, no whitespace, nothing
// net/http's path cleaning rewrites (".", "..") or a query cuts off ("?").
func checkTraceID(id string) error {
	valid := id != "" && len(id) <= maxTraceIDBytes && !strings.Contains(id, "..")
	for i, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && (r == '.' || r == '_' || r == '-'):
		default:
			valid = false
		}
	}
	if !valid {
		return fmt.Errorf("invalid trace id %.64q (%d bytes): want [A-Za-z0-9][A-Za-z0-9._-]*, at most %d bytes, no %q",
			id, len(id), maxTraceIDBytes, "..")
	}
	return nil
}

// handleAppendChunk is POST /v1/traces/{id}/chunks?seq=N: the request body
// is one encoded chunk frame, whatever its Content-Type. The server decodes
// the chunk and derives the sidecar itself, so nothing a client sends beside
// the frame can skew the stored trace or the incremental analysis. The
// frame is read into a buffer off bodyBufs and decoded into one off
// trace.EventBufs, whether the trace is open yet or not, which the decoder
// borrows with room for the events the frame's header states, as it bounds
// them (trace.DecodeChunkBytes). The body buffer goes back when the append
// ends, and so does the chunk buffer unless the chunk landed; then the epoch
// that drains it hands it back.
func (s *Server) handleAppendChunk(w http.ResponseWriter, r *http.Request, id string) {
	seqStr := r.URL.Query().Get("seq")
	seq, err := strconv.Atoi(seqStr)
	if err != nil || seq < 0 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Sprintf("chunk append needs a non-negative ?seq parameter, got %q", seqStr))
		return
	}
	if r.ContentLength > maxChunkBytes {
		writeError(w, http.StatusRequestEntityTooLarge, ErrCodeBadRequest,
			fmt.Sprintf("chunk body of %d bytes exceeds the %d-byte limit", r.ContentLength, maxChunkBytes))
		return
	}
	body, ok := readBody(w, r, maxChunkBytes, "reading chunk body: ")
	if !ok {
		return
	}
	defer releaseBody(body)
	frame := body.b
	entry := s.reg.Load().byID[id]
	// An append certain to be refused — a sealed trace, a seq beyond its next
	// — is refused before the frame is decoded and indexed for nothing;
	// openLive and the sink's check under pmu stay the authority. A trace that
	// does not exist yet has nothing to ask, so an undecodable first chunk
	// still creates no trace.
	if entry != nil {
		if apiErr := entry.appendRefusal(); apiErr != nil {
			writeAPIError(w, apiErr)
			return
		}
		if next := entry.live.sink.Chunks(); seq > next {
			writeAPIError(w, ingestError(id, &trace.SeqError{Seq: seq, Next: next}))
			return
		}
	}
	var events []trace.Event
	defer func() { putEvents(events) }() // nil once the epoch owns them
	// The decoder sniffs the frame's version: v1 and v2 chunks are accepted
	// alike, landed byte-for-byte, and analyzed as decoded events.
	events, err = trace.DecodeChunkBytes(frame, nil, &trace.EventBufs)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadChunk, "undecodable chunk frame: "+err.Error())
		return
	}
	index := trace.BuildChunkIndex(events, int64(len(frame)))
	sidecar, err := index.AppendBinary(nil)
	if err != nil {
		writeAPIError(w, storeFailed(id, err))
		return
	}

	lt, _, apiErr := s.openLive(id)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	// Apply under the ingest lock so the sink's sequence order is the pending
	// queue's: the epoch drained later replays chunks as they landed on disk.
	lt.pmu.Lock()
	dup, err := lt.sink.Append(seq, frame, sidecar)
	if err == nil && !dup {
		lt.pending = append(lt.pending, events)
		events = nil // the epoch's now
		lt.fold.foldIndex(index)
		lt.digest = lt.sink.Digest()
	}
	chunks, digest := lt.fold.chunks, lt.digest
	lt.pmu.Unlock()
	if err != nil {
		writeAPIError(w, ingestError(id, err))
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{ID: lt.id, Seq: seq, Chunks: chunks, Digest: digest, Duplicate: dup})
}

// ingestError maps the errors of trace id's sink onto the API error
// vocabulary: what the sink refuses, or else the store's failure.
func ingestError(id string, err error) *apiError {
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
		return storeFailed(id, err)
	}
}

// storeFailed is the answer to a trace store that failed trace id: 500
// store_failed, which a client tells from a failed Engine run. The message
// names the id and the innermost cause (an errno, say), never a path: where
// the store lives is the server's own business.
func storeFailed(id string, err error) *apiError {
	return &apiError{http.StatusInternalServerError, ErrCodeStoreFailed,
		"the trace store failed " + pathless(id, err).Error()}
}

// handleSeal is POST /v1/traces/{id}/seal: the body is the run's trace.Meta
// (an empty body seals with zero metadata). Sealing writes meta.json, fixes
// the trace's content digest, and promotes the entry in place: from here on
// the id is a sealed entry like any AddDir registered.
func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request, id string) {
	entry := s.reg.Load().byID[id]
	if entry == nil {
		writeError(w, http.StatusNotFound, ErrCodeUnknownTrace, "unknown live trace id")
		return
	}
	if apiErr := entry.appendRefusal(); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	var meta trace.Meta
	if !readJSON(w, r, &meta, true) {
		return
	}
	sealed, err := s.promote(entry.live, meta)
	if err != nil {
		writeAPIError(w, ingestError(id, err))
		return
	}
	writeJSON(w, http.StatusOK, SealResponse{ID: sealed.id, Chunks: sealed.info.Chunks, Digest: sealed.info.Digest})
}

// promote seals lt and swaps the sealed entry in for its open one, all under
// the analysis lock: an analyze that was waiting on it finds lt.sealed set
// and answers from the sealed entry. A sealed trace is immutable, so
// its analysis is computed once, here — the pending chunks are the final
// epoch; the result set (fleet queries, filtered analyzes) and the unfiltered
// result-only document go to the report store, so neither costs an Engine
// run. The entry is built from memory, not read back from the directory, and
// keeps the sealed sink for the prints it took (runSealed); the rest of the
// liveTrace goes with the old one, its Incremental's process states and
// window results with it, and the window buffers — every decoded event — go
// back to trace.EventBufs, which the next Engine run or live trace draws
// from.
func (s *Server) promote(lt *liveTrace, meta trace.Meta) (*traceEntry, error) {
	lt.amu.Lock()
	defer lt.amu.Unlock()
	if err := lt.sink.Seal(meta); err != nil {
		return nil, err
	}
	// The sink now refuses appends: this epoch and the fold are final.
	lt.drain()
	sealed, err := sealedEntry(lt.id, lt.sink.Dir(), lt.sink.Digest(), meta, &lt.fold)
	if err != nil {
		return nil, err
	}
	results := lt.inc.Results(nil)
	// After the final sweep: the counters then include the last epoch's.
	stats := lt.inc.Stats()
	sealed.streamed, sealed.sink = &stats, lt.sink
	var rs bytes.Buffer
	if err := report.EncodeResultSet(&rs, results); err == nil {
		s.store.add(resultSetKey(sealed.info.Digest), rs.Bytes())
	}
	s.storeDoc(cacheKey(sealed.info.Digest, canonical{resultOnly: true}), report.NewResultAnalysis(meta, results, false))

	s.wmu.Lock()
	s.setEntry(sealed)
	s.wmu.Unlock()
	// Still under amu: an analyze that waited for it finds the sealed entry
	// and never reaches the released state.
	lt.sealed = sealed
	lt.inc.Release()
	return sealed, nil
}

// analyzeLive answers an analyze of an open trace: one epoch over everything
// pending, then the result-only document (no stats block — an incremental
// state has no single "run" to describe), cached encoded per (digest, procs)
// so a quiescent trace answers repeats from the cached bytes. Correction is
// refused: it rewrites events before routing, which would need the
// calibration at ingest time. Once sealed, even while the request waited for
// the analysis lock, it is an ordinary Engine run.
func (s *Server) analyzeLive(w http.ResponseWriter, r *http.Request, entry *traceEntry, plan *analyzePlan) error {
	if plan.c.correction {
		writeError(w, http.StatusBadRequest, ErrCodeCorrectionUnsupported,
			"correction is not supported on an open trace; seal it first")
		return nil
	}
	c := plan.c

	lt := entry.live
	lt.amu.Lock()
	if sealed := lt.sealed; sealed != nil {
		lt.amu.Unlock()
		return s.analyze(w, r, sealed, plan)
	}
	defer lt.amu.Unlock()

	digest := lt.drain()
	h := w.Header()
	h["X-Rlscope-Digest"] = []string{digest}
	h["X-Rlscope-State"] = stateHdr[StateOpen]
	if lt.lastBody.b != nil && lt.lastDigest == digest && slices.Equal(lt.lastProcs, c.procs) {
		h["X-Rlscope-Cache"] = cacheHdr["hit"]
		writeBody(w, lt.lastBody)
		return nil
	}

	var filter map[trace.ProcID]bool
	if len(c.procs) > 0 {
		filter = make(map[trace.ProcID]bool, len(c.procs))
		for _, p := range c.procs {
			filter[p] = true
		}
	}
	doc := report.NewResultAnalysis(trace.Meta{}, lt.inc.Results(filter), false)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeAnalysisFailed, "encoding report: "+err.Error())
		return nil
	}
	lt.lastBody = newStoredBody(buf.Bytes())
	lt.lastDigest = digest
	lt.lastProcs = c.procs
	h["X-Rlscope-Cache"] = cacheHdr["miss"]
	writeBody(w, lt.lastBody)
	return nil
}

// summary renders an open trace's summary — and with it its listing row —
// over the chunks landed so far: the derivation a sealed entry got once.
func (lt *liveTrace) summary() *TraceSummary {
	lt.pmu.Lock()
	defer lt.pmu.Unlock()
	return buildSummary(&lt.fold, lt.id, lt.digest, StateOpen, trace.Meta{})
}

// IncrementalStats reports the incremental-analysis counters of a trace that
// arrived over /chunks — the instrumented ground truth that appending one
// chunk re-sweeps only the windows it lands in, whatever the trace's length.
// After seal they are final. ok is false if id is not such a trace.
func (s *Server) IncrementalStats(id string) (stats analysis.IncrementalStats, ok bool) {
	entry := s.reg.Load().byID[id]
	switch {
	case entry != nil && entry.live != nil:
		entry.live.amu.Lock()
		defer entry.live.amu.Unlock()
		return entry.live.inc.Stats(), true
	case entry != nil && entry.streamed != nil:
		return *entry.streamed, true
	}
	return stats, false
}
