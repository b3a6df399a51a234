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
	"io"
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

// maxDecodedBufs bounds an open trace's stack of drained decode buffers: an
// epoch of more chunks than this allocates the rest afresh.
const maxDecodedBufs = 16

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
	// what listing and summary read — the digest as of the last append and
	// the sidecar fold — and the recycled ingest buffers. They never ask the
	// sink, so a trace reads as open, with its last open digest, until seal
	// swaps it out.
	pmu     sync.Mutex
	pending [][]trace.Event
	digest  string
	fold    summaryFold
	// frame is the body buffer of the last append to finish, and decoded the
	// chunk buffers epochs have drained: what the next appends read and
	// decode into. An append takes them while it runs, so concurrent appends
	// never share one.
	frame   []byte
	decoded [][]trace.Event

	// amu guards the analysis side: the incremental state and the one-slot
	// encoded-document cache. Epoch application and result reads are
	// serialized per trace; appends, listings and summaries never take it.
	amu        sync.Mutex
	inc        *analysis.Incremental
	lastDigest string
	lastProcs  []trace.ProcID
	lastBody   []byte
}

// drain is the coordinator step: everything appended since the last epoch
// becomes this epoch, applied in landing order. Apply copies the events into
// the windows, so the chunk buffers then go back on the decode stack, and
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
	lt.pmu.Lock()
	for i, events := range batch {
		lt.putDecoded(events)
		batch[i] = nil
	}
	if lt.pending == nil {
		lt.pending = batch[:0]
	}
	lt.pmu.Unlock()
	return digest
}

// takeBuffers hands an append the trace's frame buffer and a decode buffer,
// either nil when there is none to take; lt may be nil: a trace not open yet
// has no buffers.
func (lt *liveTrace) takeBuffers() (frame []byte, events []trace.Event) {
	if lt == nil {
		return nil, nil
	}
	lt.pmu.Lock()
	defer lt.pmu.Unlock()
	frame, lt.frame = lt.frame, nil
	if n := len(lt.decoded); n > 0 {
		events = lt.decoded[n-1]
		lt.decoded[n-1] = nil
		lt.decoded = lt.decoded[:n-1]
	}
	return frame, events
}

// putBuffers is takeBuffers' converse; events is nil when the append queued
// them. Of two frame buffers the larger stays.
func (lt *liveTrace) putBuffers(frame []byte, events []trace.Event) {
	if lt == nil {
		return
	}
	lt.pmu.Lock()
	defer lt.pmu.Unlock()
	if cap(frame) > cap(lt.frame) {
		lt.frame = frame
	}
	lt.putDecoded(events)
}

// putDecoded pushes a chunk buffer on the decode stack while there is room.
// pmu held.
func (lt *liveTrace) putDecoded(events []trace.Event) {
	if cap(events) > 0 && len(lt.decoded) < maxDecodedBufs {
		lt.decoded = append(lt.decoded, events[:0])
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if entry := s.traces[id]; entry != nil {
		return entry.live, false, entry.appendRefusal()
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
	s.traces[id] = &traceEntry{id: id, live: lt}
	s.ids = append(s.ids, id)
	return lt, true, nil
}

// appendRefusal is why e takes no more chunks: nil while it is open,
// trace_sealed once the seal of a streamed trace has promoted it,
// trace_exists for a directory registered read-only.
func (e *traceEntry) appendRefusal() *apiError {
	if e.live != nil {
		return nil
	}
	if e.streamed != nil {
		return ingestError(trace.ErrSinkSealed)
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
// the frame can skew the stored trace or the incremental analysis. An open
// trace's frame is read into the trace's recycled body buffer and decoded
// into one of its recycled chunk buffers; the body buffer goes back when the
// append ends, the chunk buffer when an epoch has drained it.
func (s *Server) handleAppendChunk(w http.ResponseWriter, r *http.Request) {
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
	entry := s.lookup(r.PathValue("id"))
	var owner *liveTrace // whose buffers these are: the trace's, once it is open
	if entry != nil {
		owner = entry.live
	}
	frame, events := owner.takeBuffers()
	defer func() { owner.putBuffers(frame, events) }()
	frame, err = readFrame(frame, http.MaxBytesReader(w, r.Body, maxChunkBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		frame = nil // a partial body, perhaps the limit's worth: not kept
		writeError(w, status, ErrCodeBadRequest, "reading chunk body: "+err.Error())
		return
	}
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
			writeAPIError(w, ingestError(&trace.SeqError{Seq: seq, Next: next}))
			return
		}
	}
	// DecodeChunkBytes sniffs the frame's version: v1 and v2 chunks are
	// accepted alike, landed byte-for-byte, and analyzed as decoded events.
	events, err = trace.DecodeChunkBytes(frame, events[:0])
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadChunk, "undecodable chunk frame: "+err.Error())
		return
	}
	index := trace.BuildChunkIndex(events, int64(len(frame)))
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
	owner = lt // the first append's buffers start the new trace's

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
		writeAPIError(w, ingestError(err))
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{ID: lt.id, Seq: seq, Chunks: chunks, Digest: digest, Duplicate: dup})
}

// readFrame reads r to EOF into buf[:0], growing it only when the bytes that
// have arrived fill it — never from what the request declares.
func readFrame(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
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
// the trace's content digest, and promotes the entry in place: from here on
// the id is a sealed entry like any AddDir registered.
func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	entry := s.lookup(r.PathValue("id"))
	if entry == nil {
		writeError(w, http.StatusNotFound, ErrCodeUnknownTrace, "unknown live trace id")
		return
	}
	if entry.live == nil {
		writeAPIError(w, ingestError(trace.ErrSinkSealed))
		return
	}
	var meta trace.Meta
	if !readJSON(w, r, &meta, true) {
		return
	}
	sealed, err := s.promote(entry.live, meta)
	if err != nil {
		writeAPIError(w, ingestError(err))
		return
	}
	writeJSON(w, http.StatusOK, SealResponse{ID: sealed.id, Chunks: sealed.info.Chunks, Digest: sealed.info.Digest})
}

// promote seals lt and swaps the sealed entry in for its open one, all under
// the analysis lock: an analyze that was waiting on it finds the registry
// changed and answers from the sealed entry. A sealed trace is immutable, so
// its analysis is computed once, here — the pending chunks are the final
// epoch; the result set (fleet queries, filtered analyzes) and the unfiltered
// result-only document go to the report store, so neither costs an Engine
// run. The entry is built from memory, not read back from the directory; the
// liveTrace goes with the old one, and its Incremental's window buffers —
// every decoded event — go back to the pool the next Engine run or live
// trace draws from.
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
	sealed.streamed = &stats
	var rs bytes.Buffer
	if err := report.EncodeResultSet(&rs, results); err == nil {
		s.store.add(resultSetKey(sealed.info.Digest), rs.Bytes())
	}
	s.storeDoc(cacheKey(sealed.info.Digest, canonical{resultOnly: true}), report.NewResultAnalysis(meta, results, false))

	s.mu.Lock()
	s.traces[lt.id] = sealed
	s.mu.Unlock()
	// Still under amu: an analyze that waited for it finds the sealed entry
	// and never reaches the released state.
	lt.inc.Release()
	return sealed, nil
}

// analyzeLive answers an analyze of an open trace: one epoch over everything
// pending, then the result-only document (no stats block — an incremental
// state has no single "run" to describe), cached encoded per (digest, procs)
// so a quiescent trace answers repeats from the cached bytes. Correction is
// refused: it rewrites events before routing, which would need the
// calibration at ingest time. Once sealed it is an ordinary Engine run.
func (s *Server) analyzeLive(w http.ResponseWriter, r *http.Request, entry *traceEntry, req AnalyzeRequest) {
	if req.Correction {
		writeError(w, http.StatusBadRequest, ErrCodeCorrectionUnsupported,
			"correction is not supported on an open trace; seal it first")
		return
	}
	c := s.canonicalize(req)

	lt := entry.live
	lt.amu.Lock()
	if now := s.lookup(entry.id); now != entry {
		// Sealed while this request waited for the lock.
		lt.amu.Unlock()
		s.analyzeSealed(w, r, now, req)
		return
	}
	defer lt.amu.Unlock()

	digest := lt.drain()
	h := w.Header()
	h["X-Rlscope-Digest"] = []string{digest}
	h["X-Rlscope-State"] = stateHdr[StateOpen]
	if lt.lastBody != nil && lt.lastDigest == digest && slices.Equal(lt.lastProcs, c.procs) {
		h["X-Rlscope-Cache"] = cacheHdr["hit"]
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
	doc := report.NewResultAnalysis(trace.Meta{}, lt.inc.Results(filter), false)
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeAnalysisFailed, "encoding report: "+err.Error())
		return
	}
	lt.lastBody = buf.Bytes()
	lt.lastDigest = digest
	lt.lastProcs = c.procs
	h["X-Rlscope-Cache"] = cacheHdr["miss"]
	writeBody(w, lt.lastBody)
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
	entry := s.lookup(id)
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
