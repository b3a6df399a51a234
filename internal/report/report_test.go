package report

import (
	"strings"
	"testing"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

func sampleResult() *overlap.Result {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: 0, End: 1000, Name: "python"},
		{Kind: trace.KindCPU, Cat: trace.CatBackend, Start: 100, End: 400, Name: "run"},
		{Kind: trace.KindCPU, Cat: trace.CatCUDA, Start: 150, End: 250, Name: "cudaLaunchKernel"},
		{Kind: trace.KindCPU, Cat: trace.CatSimulator, Start: 600, End: 900, Name: "step"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: 200, End: 350, Name: "k"},
		{Kind: trace.KindOp, Start: 0, End: 500, Name: "backpropagation"},
		{Kind: trace.KindOp, Start: 500, End: 1000, Name: "simulation"},
		{Kind: trace.KindTransition, Start: 90, End: 90, Name: trace.TransPythonToBackend},
		{Kind: trace.KindTransition, Start: 590, End: 590, Name: trace.TransPythonToSimulator},
	}
	return overlap.Compute(events)
}

func TestFromResultCells(t *testing.T) {
	b := FromResult("test", sampleResult(), nil)
	if b.Total != 1000 {
		t.Fatalf("Total = %v, want 1000", b.Total)
	}
	if got := b.Cells[CellKey{"backpropagation", trace.CatCUDA}]; got != 100 {
		t.Fatalf("CUDA cell = %v, want 100", got)
	}
	if got := b.Cells[CellKey{"simulation", trace.CatSimulator}]; got != 300 {
		t.Fatalf("Simulator cell = %v, want 300", got)
	}
	if got := b.GPUTime["backpropagation"]; got != 150 {
		t.Fatalf("GPU time = %v, want 150", got)
	}
	if got := b.OpTotal("backpropagation"); got != 500 {
		t.Fatalf("OpTotal = %v, want 500", got)
	}
	// Python = total − backend span (which itself contains the CUDA
	// call) − simulator span = 1000 − 300 − 300.
	var python vclock.Duration
	for _, op := range b.Ops {
		python += b.Cells[CellKey{op, trace.CatPython}]
	}
	if got := python; got != 400 {
		t.Fatalf("python total = %v, want 400", got)
	}
	if got := b.TotalGPU(); got != 150 {
		t.Fatalf("TotalGPU = %v", got)
	}
}

func TestTableRendersAllRows(t *testing.T) {
	b := FromResult("w1", sampleResult(), []string{"backpropagation", "simulation"})
	out := Table("unit", []*Breakdown{b})
	for _, want := range []string{"unit", "w1", "backpropagation", "simulation", "(total)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestCSVFormat(t *testing.T) {
	b := FromResult("w,1", sampleResult(), []string{"simulation"})
	out := CSV([]*Breakdown{b})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "workload,operation,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], `"w,1",simulation,`) {
		t.Fatalf("label not escaped: %s", lines[1])
	}
}

func TestTransitions(t *testing.T) {
	rows := Transitions("w", sampleResult(), []string{"backpropagation", "simulation"})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Backend != 1 || rows[1].Simulator != 1 {
		t.Fatalf("transition counts wrong: %+v", rows)
	}
	out := TransitionTable("t", rows)
	if !strings.Contains(out, "Python→Backend") {
		t.Fatal("header missing")
	}
}

func TestSortedOpsOrder(t *testing.T) {
	ops := SortedOps(sampleResult())
	if len(ops) != 2 || ops[0] != "backpropagation" || ops[1] != "simulation" {
		t.Fatalf("SortedOps = %v", ops)
	}
}

func TestPhaseTable(t *testing.T) {
	phases := map[trace.ProcID][]overlap.PhaseBreakdown{
		0: {{Name: "selfplay", Start: 0, End: 100, CPU: 90, GPU: 5}},
		1: {{Name: "selfplay", Start: 0, End: 80, CPU: 70, GPU: 3}},
	}
	out := PhaseTable("phases", phases, trace.Meta{Procs: map[trace.ProcID]trace.ProcInfo{0: {Name: "trainer"}}})
	for _, want := range []string{"phases", "trainer", "proc1", "selfplay"} {
		if !strings.Contains(out, want) {
			t.Fatalf("phase table missing %q:\n%s", want, out)
		}
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape(`a"b`) != `"a""b"` {
		t.Fatalf("quote escaping wrong: %s", csvEscape(`a"b`))
	}
	if csvEscape("plain") != "plain" {
		t.Fatal("plain string modified")
	}
}
