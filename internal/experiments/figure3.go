package experiments

import (
	"fmt"
	"strings"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Figure3Result holds the worked cross-stack overlap example of Figure 3.
type Figure3Result struct {
	// CPUMcts, CPUExpand and OverlapExpand are the three published sums.
	CPUMcts, CPUExpand, OverlapExpand vclock.Duration
}

// Figure3 reconstructs the paper's Figure 3 trace — an mcts_tree_search
// operation containing two expand_leaf operations with two GPU kernels —
// and runs the overlap computation over it. The published sums are:
//
//	CPU, mcts_tree_search      = 1.25 ms
//	CPU, expand_leaf           = 0.79 ms
//	GPU, CPU, expand_leaf      = 1.70 ms
func Figure3() *Figure3Result {
	ms := func(f float64) vclock.Time { return vclock.Time(f * float64(vclock.Millisecond)) }
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Start: ms(0), End: ms(3.74), Name: "python"},
		{Kind: trace.KindOp, Start: ms(0), End: ms(3.74), Name: "mcts_tree_search"},
		{Kind: trace.KindOp, Start: ms(0.75), End: ms(2.10), Name: "expand_leaf"},
		{Kind: trace.KindOp, Start: ms(2.60), End: ms(3.74), Name: "expand_leaf"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: ms(1.05), End: ms(1.90), Name: "expand"},
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Start: ms(2.75), End: ms(3.60), Name: "expand"},
	}
	tr := &trace.Trace{Events: events, Meta: trace.Meta{Workload: "figure3"}}
	res := analyzeMain(tr)
	return &Figure3Result{
		CPUMcts:       res.Dur("mcts_tree_search", overlap.ResCPU, trace.CatPython),
		CPUExpand:     res.Dur("expand_leaf", overlap.ResCPU, trace.CatPython),
		OverlapExpand: res.Dur("expand_leaf", overlap.ResCPU|overlap.ResGPU, trace.CatPython),
	}
}

// Render renders Figure 3's sums beside the paper's values.
func (r *Figure3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("== Figure 3: cross-stack event overlap (worked example) ==\n")
	row := func(label string, got vclock.Duration, paper string) {
		fmt.Fprintf(&sb, "%-28s measured=%-10s paper=%s\n", label, got, paper)
	}
	row("CPU, mcts_tree_search", r.CPUMcts, "1.25 ms")
	row("CPU, expand_leaf", r.CPUExpand, "0.79 ms")
	row("GPU, CPU, expand_leaf", r.OverlapExpand, "1.7 ms")
	return sb.String()
}
