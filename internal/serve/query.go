// Fleet queries: POST /v1/query answers cross-trace aggregation questions
// over every sealed trace the server knows. The query body is the fleet DSL
// (fleet.Query); the response is the byte-stable report.QueryDoc the offline
// rlscope-query CLI prints for the same traces and query, so the two can be
// compared with cmp.
//
// The document is cached encoded, by content (Server.Query): a repeat of a
// query over an unchanged fleet is one LRU lookup. The body memo hands a
// repeated body its compiled plan (queryPlan), and the plan keeps the
// document key it was last answered under, tagged with the registry
// generation it was computed at; only a registry change, or a miss, sends a
// query back through Select and ContentKey. Behind that, per-trace results come from
// the tiered report store: the full-fidelity result set of each trace is
// cached under its content digest alone (resultSetKey — results are
// byte-identical at any worker count, so no options belong in the key),
// which makes an N-trace document miss over a warm store N store lookups
// plus an exact in-memory merge, zero Engine runs. Result-set misses fall
// back to a singleflight-deduplicated Engine run whose encoded result set
// immediately lands back in the store — on disk when the server has a
// -store-reports directory, so the warmth survives restarts and is shared
// by every server pointed at the same directory.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
)

// resultSetKey addresses a trace's full-fidelity result set in the report
// store by content digest alone — no analysis options belong in the key
// because results are byte-identical at any worker count. The "rs|" prefix
// keeps result-set blobs disjoint from analysis documents, whose keys start
// with their version; the version that follows it (report.ResultSetVersion)
// makes a blob another schema wrote a miss by key, never decoded first.
func resultSetKey(digest string) string { return resultSetPrefix + digest }

var resultSetPrefix = "rs|v" + strconv.Itoa(report.ResultSetVersion) + "|"

// queryKey addresses an encoded query document in the report cache by the
// plan's content key and the document version. Query documents live in the
// memory tier only: the disk tier keeps what costs an Engine run (result
// sets, analysis documents), memory keeps what costs a merge — every
// registration changes the key of each query it matches, and that churn
// must not become files.
func queryKey(contentKey string) string { return docKeyPrefix + "q|" + contentKey }

// QueryResult is one answered fleet query: the encoded report.QueryDoc,
// how the cache answered it ("hit", "miss", or "dedup" when an identical
// in-flight query computed it), and the Engine runs this call itself paid
// for — runs another in-flight query computed or the store absorbed don't
// count, which is exactly what a warm-store assertion wants to read.
type QueryResult struct {
	Body       []byte
	Cache      string
	EngineRuns int
	// length is Body's Content-Length value, stored with a cached document.
	length []string
}

// Query answers plan over every sealed trace in the registry — the one fleet
// query path, behind POST /v1/query and rlscope-query alike. The document is
// a pure function of the plan and the selected traces' content, so it is
// cached encoded under the plan's ContentKey: a repeat is one LRU lookup,
// and a miss runs Execute once however many identical queries are waiting.
// Only successful documents are stored, and nothing is ever purged — a
// changed fleet is a changed key.
func (s *Server) Query(ctx context.Context, plan *fleet.Plan) (QueryResult, error) {
	return s.query(ctx, plan, nil)
}

// queryPlan is a compiled query as the body memo keeps it: the plan, and the
// selection it was last answered over.
type queryPlan struct {
	plan *fleet.Plan
	sel  atomic.Pointer[selection]
}

// selection is what a plan selected at one registry generation: the key of
// the document that answered it. The matched traces are not kept — only a
// miss needs them, and a miss selects afresh.
type selection struct {
	gen uint64
	key string
}

// query is Query with the plan's slot in the body memo: last holds the
// selection a kept plan was last answered over, and is nil for a plan the
// memo does not keep.
func (s *Server) query(ctx context.Context, plan *fleet.Plan, last *atomic.Pointer[selection]) (QueryResult, error) {
	// A selection made at the current generation still names the document:
	// a repeat over an unchanged registry is this one lookup.
	if last != nil {
		if sel := last.Load(); sel != nil && sel.gen == s.gen.Load() {
			if body, ok := s.store.lru.get(sel.key); ok {
				return QueryResult{Body: body.b, Cache: "hit", length: body.length}, nil
			}
		}
	}
	candidates, gen := s.queryCandidates()
	matched, err := plan.Select(candidates)
	if err != nil {
		return QueryResult{}, err
	}
	key := queryKey(plan.ContentKey(matched))
	if last != nil {
		last.Store(&selection{gen: gen, key: key})
	}
	if body, ok := s.store.lru.get(key); ok {
		return QueryResult{Body: body.b, Cache: "hit", length: body.length}, nil
	}
	// engineRuns is written on the flight's goroutine and read only once do
	// has returned the flight's result, which orders the two.
	engineRuns := 0
	body, shared, err := s.flights.do(ctx, key, func(runCtx context.Context) ([]byte, error) {
		doc, err := plan.Execute(runCtx, matched, func(ctx context.Context, t fleet.Trace) (map[trace.ProcID]*overlap.Result, error) {
			// The entry the registry holds now: the one selected, or a fresh
			// snapshot a run swapped in since, which moved the generation, so
			// this document is then not stored.
			results, ran, err := s.loadResults(ctx, s.lookup(t.ID))
			if ran {
				engineRuns++
			}
			if err != nil {
				return nil, pathless(t.ID, err)
			}
			return results, nil
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			return nil, fmt.Errorf("encoding query document: %w", err)
		}
		// A result-set run that found its directory rewritten swapped a fresh
		// entry in, so the results may not be the content the key names:
		// after any registry change the document answers, but is not stored.
		if s.gen.Load() == gen {
			s.store.lru.add(key, buf.Bytes())
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return QueryResult{}, err
	}
	length := newStoredBody(body).length
	if shared {
		return QueryResult{Body: body, Cache: "dedup", length: length}, nil
	}
	return QueryResult{Body: body, Cache: "miss", EngineRuns: engineRuns, length: length}, nil
}

// handleQuery is POST /v1/query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	plan, last, ok := s.queryRequest(w, r)
	if !ok {
		return
	}
	res, err := s.query(r.Context(), plan, last)
	if err != nil {
		var qerr *fleet.QueryError
		if errors.As(err, &qerr) {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error())
		} else {
			writeRunError(w, r, "query", err)
		}
		return
	}
	h := w.Header()
	h["X-Rlscope-Cache"] = cacheHdr[res.Cache]
	if res.EngineRuns == 0 {
		h["X-Rlscope-Engine-Runs"] = noRunsHdr
	} else {
		h["X-Rlscope-Engine-Runs"] = []string{strconv.Itoa(res.EngineRuns)}
	}
	writeBody(w, storedBody{b: res.Body, length: res.length})
}

// queryCandidates snapshots every sealed entry as a fleet candidate, with the
// registry generation the snapshot is of. Open traces are excluded — their
// content (and digest) is still moving, so they have no stable result set to
// aggregate; seal them to make them queryable.
func (s *Server) queryCandidates() ([]fleet.Trace, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]fleet.Trace, 0, len(s.ids))
	for _, id := range s.ids {
		if e := s.traces[id]; e.live == nil {
			out = append(out, fleet.Trace{ID: e.id, Meta: e.meta, Digest: e.info.Digest})
		}
	}
	return out, s.gen.Load()
}

// loadResults returns the full-fidelity per-process results of a sealed
// entry, addressed by its content digest: tiered store lookup first, then a
// singleflight-deduplicated Engine run under the default options, which
// writes the encoded result set back through both tiers, and with it the
// default analyze document (runSealed). ran reports whether this call paid
// for an Engine run; such a call returns the results the run computed,
// while callers that joined its flight decode the set it encoded. It backs
// fleet queries and the result-only analyzes of streamed traces.
func (s *Server) loadResults(ctx context.Context, entry *traceEntry) (results map[trace.ProcID]*overlap.Result, ran bool, err error) {
	key := resultSetKey(entry.info.Digest)
	if body, ok := s.store.get(key); ok {
		if results, err := report.DecodeResultSet(body.b); err == nil {
			return results, false, nil
		}
		// A stale or corrupt blob (version bump, torn disk entry the
		// frame check missed) is a miss: recompute and overwrite.
	}
	// computed is written on the flight's goroutine and read only once do
	// has returned the flight's result, which orders the two.
	var computed map[trace.ProcID]*overlap.Result
	body, shared, err := s.flights.do(ctx, key, func(runCtx context.Context) ([]byte, error) {
		// A flight that lost a fill race can answer from the store — but
		// only with a blob that decodes, or the stale one above would be
		// served straight back and never overwritten.
		if body, ok := s.store.get(key); ok {
			if _, err := report.DecodeResultSet(body.b); err == nil {
				return body.b, nil
			}
		}
		_, set, results, err := s.runSealed(runCtx, entry, s.canonicalize(AnalyzeRequest{}))
		computed = results
		return set, err
	})
	if err != nil {
		return nil, false, err
	}
	if !shared && computed != nil {
		return computed, true, nil
	}
	results, err = report.DecodeResultSet(body)
	return results, false, err
}
