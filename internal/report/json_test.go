package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/analysis"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// jsonTestResult builds a small two-op overlap result directly.
func jsonTestResult() *overlap.Result {
	return &overlap.Result{
		ByKey: map[overlap.Key]vclock.Duration{
			{Op: "inference", Res: overlap.ResCPU, Cat: trace.CatPython}:                100,
			{Op: "inference", Res: overlap.ResCPU | overlap.ResGPU, Cat: trace.CatCUDA}: 40,
			{Op: "simulation", Res: overlap.ResCPU, Cat: trace.CatSimulator}:            250,
		},
		Transitions: map[overlap.TransitionKey]int{
			{Op: "inference", Label: trace.TransBackendToCUDA}:      3,
			{Op: "simulation", Label: trace.TransPythonToSimulator}: 7,
		},
	}
}

func jsonTestMeta() trace.Meta {
	return trace.Meta{
		Workload: "json-test",
		Config:   trace.Full(),
		Procs: map[trace.ProcID]trace.ProcInfo{
			0: {Name: "trainer", Parent: -1},
			1: {Name: "worker", Parent: 0},
		},
	}
}

func TestNewAnalysisDeterministicEncoding(t *testing.T) {
	results := map[trace.ProcID]*overlap.Result{
		1: jsonTestResult(),
		0: jsonTestResult(),
	}
	stats := analysis.StreamStats{Chunks: 2, ChunksDecoded: 2, Events: 6, Shards: 2}
	var bufs [3]bytes.Buffer
	for i := range bufs {
		if err := NewAnalysis(jsonTestMeta(), results, stats, false).Encode(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) || !bytes.Equal(bufs[1].Bytes(), bufs[2].Bytes()) {
		t.Fatal("repeated encodings of the same analysis differ")
	}

	var doc Analysis
	if err := json.Unmarshal(bufs[0].Bytes(), &doc); err != nil {
		t.Fatalf("document does not round-trip: %v", err)
	}
	if doc.Workload != "json-test" || len(doc.Processes) != 2 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	if doc.Processes[0].Proc != 0 || doc.Processes[1].Proc != 1 {
		t.Fatalf("processes not ascending by id: %+v", doc.Processes)
	}
	if doc.Processes[0].Name != "trainer" || doc.Processes[1].Parent != 0 {
		t.Fatalf("metadata not threaded through: %+v", doc.Processes)
	}
	if doc.Stats.Events != 6 || doc.Stats.Chunks != 2 {
		t.Fatalf("stats not threaded through: %+v", doc.Stats)
	}
}

func TestBreakdownToJSONValues(t *testing.T) {
	res := jsonTestResult()
	bj, _ := ResultJSON(res)
	if bj.TotalNS != int64(res.Total()) {
		t.Fatalf("TotalNS = %d, want %d", bj.TotalNS, int64(res.Total()))
	}
	// SortedOps puts inference before simulation.
	if len(bj.Ops) != 2 || bj.Ops[0].Op != "inference" || bj.Ops[1].Op != "simulation" {
		t.Fatalf("ops wrong or misordered: %+v", bj.Ops)
	}
	inf := bj.Ops[0]
	if inf.PythonNS != 100 || inf.CUDANS != 40 || inf.GPUNS != 40 || inf.TotalNS != 140 {
		t.Fatalf("inference row wrong: %+v", inf)
	}
	sim := bj.Ops[1]
	if sim.SimulatorNS != 250 || sim.GPUNS != 0 || sim.TotalNS != 250 {
		t.Fatalf("simulation row wrong: %+v", sim)
	}
}

func TestNewAnalysisTransitions(t *testing.T) {
	results := map[trace.ProcID]*overlap.Result{0: jsonTestResult()}
	doc := NewAnalysis(jsonTestMeta(), results, analysis.StreamStats{}, true)
	if !doc.Corrected {
		t.Fatal("corrected flag dropped")
	}
	tr := doc.Processes[0].Transitions
	if len(tr) != 2 {
		t.Fatalf("want 2 transition rows, got %+v", tr)
	}
	if tr[0].Op != "inference" || tr[0].BackendToCUDA != 3 {
		t.Fatalf("inference transitions wrong: %+v", tr[0])
	}
	if tr[1].Op != "simulation" || tr[1].PythonToSimulator != 7 {
		t.Fatalf("simulation transitions wrong: %+v", tr[1])
	}
}

func TestTreeJSON(t *testing.T) {
	meta := trace.Meta{Procs: map[trace.ProcID]trace.ProcInfo{
		0: {Name: "trainer", Parent: -1},
		1: {Name: "w1", Parent: 0},
		2: {Name: "w2", Parent: 0},
		3: {Name: "orphan", Parent: 9}, // parent missing: treated as a root
	}}
	roots := TreeJSON(meta)
	if len(roots) != 2 || roots[0].Name != "trainer" || roots[1].Name != "orphan" {
		t.Fatalf("unexpected roots: %+v", roots)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Proc != 1 || kids[1].Proc != 2 {
		t.Fatalf("unexpected children: %+v", kids)
	}
}
