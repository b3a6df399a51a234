package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ProcessTree renders the multi-process view of Figure 8: one node per
// simulated process, indented under its fork parent, with total runtime and
// GPU-busy time per node.
//
//	trainer                   total=8.1s   GPU=0.42s
//	├─ selfplay_worker_0      total=5.1s   GPU=0.02s
//	├─ selfplay_worker_1      total=5.0s   GPU=0.02s
//	...
func ProcessTree(t *trace.Trace, results map[trace.ProcID]*overlap.Result) string {
	children := map[trace.ProcID][]trace.ProcID{}
	var roots []trace.ProcID
	for _, p := range t.ProcIDs() {
		info := t.Meta.Procs[p]
		if info.Parent < 0 {
			roots = append(roots, p)
		} else {
			children[info.Parent] = append(children[info.Parent], p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
	}

	var sb strings.Builder
	var render func(p trace.ProcID, depth int, last bool)
	render = func(p trace.ProcID, depth int, last bool) {
		name := ProcName(t.Meta, p)
		prefix := ""
		if depth > 0 {
			prefix = strings.Repeat("   ", depth-1)
			if last {
				prefix += "└─ "
			} else {
				prefix += "├─ "
			}
		}
		var total, gpuT vclock.Duration
		if res := results[p]; res != nil {
			total = vclock.Duration(res.SpanEnd - res.SpanStart)
			gpuT = res.TotalGPUTime()
		}
		fmt.Fprintf(&sb, "%-28s total=%-14v GPU=%v\n", prefix+name, total, gpuT)
		kids := children[p]
		for i, k := range kids {
			render(k, depth+1, i == len(kids)-1)
		}
	}
	for _, r := range roots {
		render(r, 0, true)
	}
	return sb.String()
}
