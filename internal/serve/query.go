// Fleet queries: POST /v1/query answers cross-trace aggregation questions
// over every sealed trace the server knows — registered directories and
// sealed live-ingested traces alike. The query body is the fleet DSL
// (fleet.Query); the response is the byte-stable report.QueryDoc the
// offline rlscope-query CLI prints for the same traces and query, so the
// two can be compared with cmp.
//
// Per-trace results come from the tiered report store: the full-fidelity
// result set of each trace is cached under its content digest alone
// (ResultSetKey — results are byte-identical at any worker count, so no
// options belong in the key), which makes an N-trace query over a warm
// store N store lookups plus an exact in-memory merge, zero Engine runs.
// Misses fall back to a singleflight-deduplicated Engine run whose encoded
// result set immediately lands back in the store — on disk when the server
// has a -store-reports directory, so the warmth survives restarts and is
// shared by every server pointed at the same directory.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/fleet"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
)

// ResultSetKey addresses a trace's full-fidelity result set in the report
// store by content digest alone — no analysis options belong in the key
// because results are byte-identical at any worker count. The "rs|" prefix
// keeps result-set blobs disjoint from analysis documents, whose keys
// start with the bare digest.
func ResultSetKey(digest string) string { return "rs|" + digest }

// queryCandidate pairs a fleet candidate with what the loader needs to
// produce its results: the content digest (store address) and the trace
// directory (Engine fallback).
type queryCandidate struct {
	t      fleet.Trace
	digest string
	dir    string
}

// handleQuery is POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q fleet.Query
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad query body: "+err.Error())
		return
	}
	plan, err := fleet.Compile(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error())
		return
	}

	candidates := s.queryCandidates()
	byID := make(map[string]queryCandidate, len(candidates))
	traces := make([]fleet.Trace, 0, len(candidates))
	for _, c := range candidates {
		byID[c.t.ID] = c
		traces = append(traces, c.t)
	}

	// engineRuns counts the Engine work this query itself paid for —
	// runs another in-flight query computed (singleflight shared) or the
	// store absorbed don't count, which is exactly what a warm-store
	// assertion wants to read.
	engineRuns := 0
	doc, err := plan.Execute(r.Context(), traces, func(ctx context.Context, t fleet.Trace) (map[trace.ProcID]*overlap.Result, error) {
		c := byID[t.ID]
		results, ran, err := s.LoadResults(ctx, c.digest, c.dir)
		if ran {
			engineRuns++
		}
		return results, err
	})
	if err != nil {
		var qerr *fleet.QueryError
		if errors.As(err, &qerr) {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error())
		} else {
			writeRunError(w, r, "query", err)
		}
		return
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeAnalysisFailed, "encoding query document: "+err.Error())
		return
	}
	w.Header().Set("X-RLScope-Engine-Runs", strconv.Itoa(engineRuns))
	writeBody(w, buf.Bytes())
}

// queryCandidates snapshots every sealed trace as a fleet candidate:
// registered directories plus sealed live traces. Open live traces are
// excluded — their content (and digest) is still moving, so they have no
// stable result set to aggregate; seal them to make them queryable.
func (s *Server) queryCandidates() []queryCandidate {
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
	out := make([]queryCandidate, 0, len(entries)+len(lives))
	for _, e := range entries {
		out = append(out, queryCandidate{
			t:      fleet.Trace{ID: e.id, Meta: e.meta},
			digest: e.info.Digest,
			dir:    e.dir,
		})
	}
	for _, lt := range lives {
		lt.pmu.Lock()
		sealed := lt.sink.Sealed()
		digest := lt.sink.Digest()
		lt.pmu.Unlock()
		if !sealed {
			continue
		}
		lt.amu.Lock()
		meta := lt.meta
		lt.amu.Unlock()
		out = append(out, queryCandidate{
			t:      fleet.Trace{ID: lt.id, Meta: meta},
			digest: digest,
			dir:    lt.sink.Dir(),
		})
	}
	return out
}

// LoadResults returns the full-fidelity per-process results of the sealed
// trace directory dir, addressed by its content digest: tiered store lookup
// first, a singleflight-deduplicated Engine run on a miss, the encoded
// result set written back through both tiers. ran reports whether this call
// paid for an Engine run. It backs POST /v1/query, filtered analyzes of
// sealed live traces, and rlscope-query (a Server with only ReportDir set).
func (s *Server) LoadResults(ctx context.Context, digest, dir string) (results map[trace.ProcID]*overlap.Result, ran bool, err error) {
	key := ResultSetKey(digest)
	if body, ok := s.store.get(key); ok {
		if results, err := report.DecodeResultSet(body); err == nil {
			return results, false, nil
		}
		// A stale or corrupt blob (version bump, torn disk entry the
		// frame check missed) is a miss: recompute and overwrite.
	}
	// paid is written on the flight's goroutine and read only once do has
	// returned the flight's result, which orders the two.
	paid := false
	body, _, err := s.flights.do(ctx, key, func(runCtx context.Context) ([]byte, error) {
		if body, ok := s.store.get(key); ok {
			return body, nil
		}
		rep, err := s.run(runCtx, dir, s.canonicalize(AnalyzeRequest{}))
		if err != nil {
			return nil, err
		}
		paid = true
		var buf bytes.Buffer
		if err := report.EncodeResultSet(&buf, rep.Results); err != nil {
			return nil, err
		}
		body := buf.Bytes()
		s.store.add(key, body)
		return body, nil
	})
	if err != nil {
		return nil, false, err
	}
	results, err = report.DecodeResultSet(body)
	return results, paid, err
}
