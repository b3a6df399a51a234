package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ResultSet is the canonical full-fidelity wire form of a per-process
// overlap result map — every (op, resource-set, category) cell and every
// transition counter, not the lossy per-op projection Analysis renders.
// It exists so per-trace results can be persisted (the serve report store)
// and later merged exactly: DecodeResultSet(EncodeResultSet(r)) reconstructs
// r cell-for-cell, so a fleet query over stored results merges the same
// integers a fresh Engine run would produce.
//
// Encoding is deterministic: processes ascend by id, cells sort by
// (op, res, cat), transitions by (op, label), durations are integer
// nanoseconds. Equal result maps encode to equal bytes.
type ResultSet struct {
	Version int              `json:"version"`
	Procs   []ProcResultJSON `json:"procs"`
}

// ResultSetVersion is the schema version EncodeResultSet writes. Bump it
// when the encoding changes shape; stored blobs with a different version
// are treated as store misses and recomputed.
const ResultSetVersion = 1

// ProcResultJSON is one process's full overlap result.
type ProcResultJSON struct {
	Proc        trace.ProcID         `json:"proc"`
	SpanStartNS int64                `json:"span_start_ns"`
	SpanEndNS   int64                `json:"span_end_ns"`
	Cells       []ResultCellJSON     `json:"cells"`
	Transitions []TransitionCellJSON `json:"transitions,omitempty"`
}

// ResultCellJSON is one exact breakdown cell: the resource set and category
// are carried as their raw codes so nothing is projected away.
type ResultCellJSON struct {
	Op    string `json:"op"`
	Res   uint8  `json:"res"`
	Cat   uint8  `json:"cat"`
	DurNS int64  `json:"dur_ns"`
}

// TransitionCellJSON is one exact transition counter.
type TransitionCellJSON struct {
	Op    string `json:"op"`
	Label string `json:"label"`
	Count int    `json:"count"`
}

// NewResultSet builds the canonical wire form of a per-process result map.
func NewResultSet(results map[trace.ProcID]*overlap.Result) *ResultSet {
	procs := make([]trace.ProcID, 0, len(results))
	for p := range results {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	rs := &ResultSet{Version: ResultSetVersion, Procs: make([]ProcResultJSON, 0, len(procs))}
	for _, p := range procs {
		res := results[p]
		pr := ProcResultJSON{
			Proc:        p,
			SpanStartNS: int64(res.SpanStart),
			SpanEndNS:   int64(res.SpanEnd),
			Cells:       make([]ResultCellJSON, 0, len(res.ByKey)),
		}
		for k, d := range res.ByKey {
			pr.Cells = append(pr.Cells, ResultCellJSON{
				Op: k.Op, Res: uint8(k.Res), Cat: uint8(k.Cat), DurNS: int64(d),
			})
		}
		sort.Slice(pr.Cells, func(i, j int) bool {
			a, b := pr.Cells[i], pr.Cells[j]
			if a.Op != b.Op {
				return a.Op < b.Op
			}
			if a.Res != b.Res {
				return a.Res < b.Res
			}
			return a.Cat < b.Cat
		})
		for k, n := range res.Transitions {
			pr.Transitions = append(pr.Transitions, TransitionCellJSON{Op: k.Op, Label: k.Label, Count: n})
		}
		sort.Slice(pr.Transitions, func(i, j int) bool {
			a, b := pr.Transitions[i], pr.Transitions[j]
			if a.Op != b.Op {
				return a.Op < b.Op
			}
			return a.Label < b.Label
		})
		rs.Procs = append(rs.Procs, pr)
	}
	return rs
}

// Results reconstructs the per-process result map the set encodes.
func (rs *ResultSet) Results() map[trace.ProcID]*overlap.Result {
	out := make(map[trace.ProcID]*overlap.Result, len(rs.Procs))
	for _, pr := range rs.Procs {
		res := &overlap.Result{
			ByKey:       make(map[overlap.Key]vclock.Duration, len(pr.Cells)),
			Transitions: make(map[overlap.TransitionKey]int, len(pr.Transitions)),
			SpanStart:   vclock.Time(pr.SpanStartNS),
			SpanEnd:     vclock.Time(pr.SpanEndNS),
		}
		for _, c := range pr.Cells {
			res.ByKey[overlap.Key{Op: c.Op, Res: overlap.ResourceSet(c.Res), Cat: trace.Category(c.Cat)}] = vclock.Duration(c.DurNS)
		}
		for _, t := range pr.Transitions {
			res.Transitions[overlap.TransitionKey{Op: t.Op, Label: t.Label}] = t.Count
		}
		out[pr.Proc] = res
	}
	return out
}

// EncodeResultSet writes results in canonical form: compact JSON with a
// trailing newline, equal maps to equal bytes.
func EncodeResultSet(w io.Writer, results map[trace.ProcID]*overlap.Result) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(NewResultSet(results))
}

// DecodeResultSet parses bytes written by EncodeResultSet back into a
// result map. A version mismatch is an error — callers treating the bytes
// as a cache entry discard and recompute.
func DecodeResultSet(data []byte) (map[trace.ProcID]*overlap.Result, error) {
	var rs ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("report: decoding result set: %w", err)
	}
	if rs.Version != ResultSetVersion {
		return nil, fmt.Errorf("report: result set version %d, want %d", rs.Version, ResultSetVersion)
	}
	return rs.Results(), nil
}

// QueryDoc is the stable JSON document a fleet query produces: the wire
// format of both POST /v1/query and `rlscope-query`. Like Analysis, its
// construction is deterministic — groups sort by key, member traces by id,
// op rows by SortedOps, metric rows by the canonical metric order — and it
// carries no run-descriptive state (no cache-tier or engine-run counters),
// so the offline CLI and a warm server produce byte-identical documents
// for the same traces and query.
type QueryDoc struct {
	Query  QueryEchoJSON `json:"query"`
	Traces int           `json:"traces"`
	Groups []GroupJSON   `json:"groups"`
}

// QueryEchoJSON echoes the canonicalized query the document answers, making
// the document self-describing. Maps marshal with sorted keys, so the echo
// is as byte-stable as the rest.
type QueryEchoJSON struct {
	Filter  map[string]string `json:"filter,omitempty"`
	GroupBy []string          `json:"group_by,omitempty"`
	Metrics []string          `json:"metrics,omitempty"`
	Compare *CompareEchoJSON  `json:"compare,omitempty"`
}

// CompareEchoJSON echoes a compare clause.
type CompareEchoJSON struct {
	Baseline map[string]string `json:"baseline"`
}

// GroupJSON is one group's slice of a query document: which traces merged
// into it, the selected scalar metrics over the exact-merged result, the
// full per-op breakdown, and (under a compare clause) the delta against the
// baseline group.
type GroupJSON struct {
	// Key maps each group_by dimension to this group's value. The empty
	// map (one all-traces group) renders as {}.
	Key map[string]string `json:"key"`
	// TraceIDs lists the member traces, ascending.
	TraceIDs []string `json:"trace_ids"`
	// Procs counts processes across member traces.
	Procs int `json:"procs"`
	// Metrics holds the selected scalar metrics in canonical order.
	Metrics []MetricJSON `json:"metrics"`
	// Breakdown is the per-op rendering of the group's exact-merged
	// result — the same rows a single-trace Analysis document carries.
	Breakdown BreakdownJSON `json:"breakdown"`
	// Transitions are the group's merged transition counts per op.
	Transitions []TransitionRowJSON `json:"transitions,omitempty"`
	// Compare is present only under a compare clause: the baseline group
	// carries {"baseline": true}, every other group its deltas.
	Compare *CompareJSON `json:"compare,omitempty"`
}

// MetricJSON is one scalar metric row. Durations and counts are integers;
// ratios (gpu_frac) are rounded to 1e-6 so the rendering is byte-stable.
type MetricJSON struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// CompareJSON is a group's relation to the compare baseline.
type CompareJSON struct {
	// Baseline marks the baseline group itself.
	Baseline bool `json:"baseline,omitempty"`
	// Delta is this group's metric values minus the baseline's, in the
	// group's metric order.
	Delta []MetricJSON `json:"delta,omitempty"`
	// Ratio is this group's metric values divided by the baseline's,
	// rounded to 1e-4; metrics whose baseline value is zero are omitted.
	Ratio []MetricJSON `json:"ratio,omitempty"`
}

// RoundFrac rounds fractional metric values to 1e-6 — enough resolution
// for a share-of-time metric, coarse enough that the decimal rendering is
// short and stable.
func RoundFrac(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// RoundRatio rounds compare ratios to 1e-4.
func RoundRatio(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// Encode writes the document with EncodeJSON — the exact bytes rlscope-serve
// answers /v1/query with and rlscope-query prints.
func (q *QueryDoc) Encode(w io.Writer) error { return EncodeJSON(w, q) }
