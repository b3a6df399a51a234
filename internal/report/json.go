package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/analysis"
	"repro/internal/overlap"
	"repro/internal/recycle"
	"repro/internal/trace"
)

// Analysis is the stable JSON document describing one analysis run: the
// wire format of both `rlscope-analyze -json` and rlscope-serve's
// POST /analyze response. Construction is deterministic — processes ascend
// by id, operations follow SortedOps, and all durations are integer
// nanoseconds — so the same trace analyzed under the same options encodes
// to the same bytes, which is what makes the document safe to address by
// content (the service caches the encoded bytes keyed by trace digest +
// canonicalized options).
//
// The Stats block is the one part describing the run rather than the
// result: its scheduling fields (shards, evictions, peak residency) depend
// on worker interleaving and are only reproducible at Workers:1. Every
// other field is byte-identical across worker counts and memory budgets.
// Documents that do not come from one batch engine run — live-ingest
// incremental analyses, `rlscope-analyze -result-only` — omit the block
// entirely (Stats nil), leaving a document that is a pure function of the
// trace content and the analysis options.
type Analysis struct {
	Workload  string             `json:"workload"`
	Host      string             `json:"host,omitempty"`
	Config    trace.FeatureFlags `json:"config"`
	Corrected bool               `json:"corrected"`
	Processes []ProcessJSON      `json:"processes"`
	Stats     *StreamStatsJSON   `json:"stats,omitempty"`
}

// DocumentVersion numbers the bytes the stored documents — Analysis and
// QueryDoc — encode to. A report store keeps documents across builds, so
// every store key carries the version of the document it addresses: bump it
// whenever a change can make the same trace and options encode to other
// bytes, and a new build misses what an older one stored instead of serving
// it. TestDocumentVersionPinsBytes holds the digests of one fixture's
// documents at each version.
//
// Version 2: an uncorrected run over a chunk file steps over the overhead
// markers as a corrected one does, since no sweep reads one, so the stats
// block of a full document over a trace that carries markers counts fewer
// resident events and bytes. Results, result-only documents and query
// documents encode as at version 1.
const DocumentVersion = 2

// ProcessJSON is one process's slice of the document. Parent encodes the
// fork tree in flat form (see TreeJSON for the nested form).
type ProcessJSON struct {
	Proc        trace.ProcID        `json:"proc"`
	Name        string              `json:"name"`
	Parent      trace.ProcID        `json:"parent"`
	Breakdown   BreakdownJSON       `json:"breakdown"`
	Transitions []TransitionRowJSON `json:"transitions,omitempty"`
}

// BreakdownJSON is the stable wire form of a Breakdown: the per-operation
// stacked-bar cells of Figures 4/5/7 as integer nanoseconds.
type BreakdownJSON struct {
	TotalNS int64       `json:"total_ns"`
	GPUNS   int64       `json:"gpu_ns"`
	Ops     []OpRowJSON `json:"ops"`
}

// OpRowJSON is one operation's row: CPU time split by stack tier (each tier
// includes its CPU+GPU overlap, as the paper's stacks do) plus device-busy
// time.
type OpRowJSON struct {
	Op          string `json:"op"`
	TotalNS     int64  `json:"total_ns"`
	SimulatorNS int64  `json:"simulator_ns"`
	PythonNS    int64  `json:"python_ns"`
	CUDANS      int64  `json:"cuda_ns"`
	BackendNS   int64  `json:"backend_ns"`
	NetworkNS   int64  `json:"network_ns"`
	GPUNS       int64  `json:"gpu_ns"`
}

// TransitionRowJSON is the wire form of a TransitionRow (Figures 4c/4d).
type TransitionRowJSON struct {
	Op                string `json:"op"`
	PythonToBackend   int    `json:"python_to_backend"`
	PythonToSimulator int    `json:"python_to_simulator"`
	BackendToCUDA     int    `json:"backend_to_cuda"`
}

// StreamStatsJSON is the wire form of analysis.StreamStats.
type StreamStatsJSON struct {
	Chunks             int   `json:"chunks"`
	ChunksDecoded      int   `json:"chunks_decoded"`
	Events             int   `json:"events"`
	Shards             int   `json:"shards"`
	Evictions          int   `json:"evictions"`
	PeakResidentEvents int   `json:"peak_resident_events"`
	PeakResidentBytes  int64 `json:"peak_resident_bytes"`
}

// StatsJSON converts streaming statistics to their wire form.
func StatsJSON(s analysis.StreamStats) StreamStatsJSON {
	return StreamStatsJSON{
		Chunks:             s.Chunks,
		ChunksDecoded:      s.ChunksDecoded,
		Events:             s.Events,
		Shards:             s.Shards,
		Evictions:          s.Evictions,
		PeakResidentEvents: s.PeakResidentEvents,
		PeakResidentBytes:  s.PeakResidentBytes,
	}
}

// ResultJSON renders one overlap result in its wire form: its breakdown,
// operations in SortedOps order, and the transition rows of the operations
// with a nonzero count. It is the one rendering of a result, for an analysis
// document's processes and a fleet query's groups alike.
func ResultJSON(res *overlap.Result) (BreakdownJSON, []TransitionRowJSON) {
	ops := SortedOps(res)
	b := FromResult("", res, ops)
	out := BreakdownJSON{
		TotalNS: int64(b.Total),
		GPUNS:   int64(b.TotalGPU()),
		Ops:     make([]OpRowJSON, 0, len(b.Ops)),
	}
	for _, op := range b.Ops {
		out.Ops = append(out.Ops, OpRowJSON{
			Op:          op,
			TotalNS:     int64(b.OpTotal(op)),
			SimulatorNS: int64(b.Cells[CellKey{op, trace.CatSimulator}]),
			PythonNS:    int64(b.Cells[CellKey{op, trace.CatPython}]),
			CUDANS:      int64(b.Cells[CellKey{op, trace.CatCUDA}]),
			BackendNS:   int64(b.Cells[CellKey{op, trace.CatBackend}]),
			NetworkNS:   int64(b.Cells[CellKey{op, trace.CatNetwork}]),
			GPUNS:       int64(b.GPUTime[op]),
		})
	}
	var nonzero []TransitionRow
	for _, r := range Transitions("", res, ops) {
		if r.Backend+r.Simulator+r.CUDA > 0 {
			nonzero = append(nonzero, r)
		}
	}
	rows := make([]TransitionRowJSON, 0, len(nonzero))
	for _, r := range nonzero {
		rows = append(rows, TransitionRowJSON{
			Op:                r.Op,
			PythonToBackend:   r.Backend,
			PythonToSimulator: r.Simulator,
			BackendToCUDA:     r.CUDA,
		})
	}
	return out, rows
}

// NewAnalysis assembles the stable document for one analysis run: one
// ProcessJSON per result, ascending by process id, operations in SortedOps
// order, transitions included only for operations with a nonzero count.
func NewAnalysis(meta trace.Meta, results map[trace.ProcID]*overlap.Result, stats analysis.StreamStats, corrected bool) *Analysis {
	a := NewResultAnalysis(meta, results, corrected)
	sj := StatsJSON(stats)
	a.Stats = &sj
	return a
}

// NewResultAnalysis assembles the result-only document: NewAnalysis without
// the run-descriptive Stats block. This is the form whose bytes depend only
// on trace content and options — what the live-ingest incremental path
// serves and what `rlscope-analyze -result-only` prints, so the two can be
// compared byte-for-byte.
func NewResultAnalysis(meta trace.Meta, results map[trace.ProcID]*overlap.Result, corrected bool) *Analysis {
	procs := make([]trace.ProcID, 0, len(results))
	for p := range results {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	a := &Analysis{
		Workload:  meta.Workload,
		Host:      meta.Host,
		Config:    meta.Config,
		Corrected: corrected,
		Processes: make([]ProcessJSON, 0, len(procs)),
	}
	for _, p := range procs {
		pj := ProcessJSON{Proc: p, Name: ProcName(meta, p), Parent: meta.Procs[p].Parent}
		pj.Breakdown, pj.Transitions = ResultJSON(results[p])
		a.Processes = append(a.Processes, pj)
	}
	return a
}

// Encode writes the document with EncodeJSON — the exact bytes rlscope-serve
// caches and `rlscope-analyze -json` prints.
func (a *Analysis) Encode(w io.Writer) error { return EncodeJSON(w, a) }

// EncodeJSON is the one spelling of the indented JSON documents the module
// serves and prints: two-space indent, no HTML escaping, trailing newline.
// It borrows an encoder off jsonEncoders, so a warm call keeps the indent
// buffer an earlier one grew.
func EncodeJSON(w io.Writer, v any) error {
	e, ok := jsonEncoders.Get()
	if !ok {
		e = new(jsonEncoder)
		e.enc = json.NewEncoder(e)
		e.enc.SetEscapeHTML(false)
		e.enc.SetIndent("", "  ")
	}
	e.w, e.n = w, 0
	err := e.enc.Encode(v)
	e.w = nil
	// A json.Encoder keeps its first write error and returns it from every
	// later Encode: one that failed is never handed out again.
	if err == nil && e.n <= maxEncodeBytes {
		jsonEncoders.Put(e)
	}
	return err
}

// jsonEncoders keeps idle encoders. One whose last document passed
// maxEncodeBytes is dropped, so an idle encoder's indent buffer, grown by
// append to hold documents no longer than that, stays under twice it.
var jsonEncoders = recycle.Stack[*jsonEncoder]{Max: 8} // encodes at once beyond eight allocate afresh

const maxEncodeBytes = 64 << 10

// jsonEncoder is a kept json.Encoder and the writer it writes through:
// Write passes the bytes on to w, the destination of the call in progress,
// and counts them in n.
type jsonEncoder struct {
	enc *json.Encoder
	w   io.Writer
	n   int
}

func (e *jsonEncoder) Write(p []byte) (int, error) {
	e.n += len(p)
	return e.w.Write(p)
}

// TreeNode is the nested wire form of the multi-process fork tree (the JSON
// counterpart of ProcessTree's Figure 8 rendering).
type TreeNode struct {
	Proc     trace.ProcID `json:"proc"`
	Name     string       `json:"name"`
	Children []*TreeNode  `json:"children,omitempty"`
}

// TreeJSON builds the fork forest from run metadata: roots (Parent < 0)
// ascend by process id, as do every node's children. Processes whose parent
// is missing from the metadata are treated as roots rather than dropped.
func TreeJSON(meta trace.Meta) []*TreeNode {
	procs := make([]trace.ProcID, 0, len(meta.Procs))
	for p := range meta.Procs {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	nodes := make(map[trace.ProcID]*TreeNode, len(procs))
	for _, p := range procs {
		nodes[p] = &TreeNode{Proc: p, Name: ProcName(meta, p)}
	}
	var roots []*TreeNode
	for _, p := range procs {
		parent := meta.Procs[p].Parent
		if parent >= 0 && nodes[parent] != nil && parent != p {
			nodes[parent].Children = append(nodes[parent].Children, nodes[p])
		} else {
			roots = append(roots, nodes[p])
		}
	}
	return roots
}

// ProcName is the one process-name rule of every report and document: the
// name the run's metadata gives p, or "proc<p>" when it gives none.
func ProcName(meta trace.Meta, p trace.ProcID) string {
	if name := meta.Procs[p].Name; name != "" {
		return name
	}
	return fmt.Sprintf("proc%d", p)
}
