// Package report renders RL-Scope analysis results as text tables and CSV —
// the stand-in for the paper's matplotlib figures. Each experiment harness
// produces the same rows/series the corresponding paper figure plots.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// CPUCategories are the CPU tiers in the paper's legend order, extended
// with the Network tier distributed (multi-host) traces add.
var CPUCategories = []trace.Category{
	trace.CatSimulator, trace.CatPython, trace.CatCUDA, trace.CatBackend,
	trace.CatNetwork,
}

// Breakdown is one workload's time breakdown: the data behind one bar group
// of Figures 4/5/7.
type Breakdown struct {
	Label string
	Total vclock.Duration
	// Cells maps (operation, category) to CPU time (including CPU+GPU
	// overlap time, as the paper's stacks do).
	Cells map[CellKey]vclock.Duration
	// GPUTime maps operation → device-busy time.
	GPUTime map[string]vclock.Duration
	// Ops lists operations in display order.
	Ops []string
}

// CellKey addresses one stack segment.
type CellKey struct {
	Op  string
	Cat trace.Category
}

// FromResult builds a breakdown from an overlap result, keeping only the
// listed operations (nil keeps all, sorted).
func FromResult(label string, res *overlap.Result, ops []string) *Breakdown {
	if ops == nil {
		ops = res.OpNames()
	}
	b := &Breakdown{
		Label:   label,
		Total:   res.Total(),
		Cells:   map[CellKey]vclock.Duration{},
		GPUTime: map[string]vclock.Duration{},
		Ops:     ops,
	}
	for _, op := range ops {
		for _, cat := range CPUCategories {
			if d := res.CategoryCPUTime(op, cat); d > 0 {
				b.Cells[CellKey{op, cat}] = d
			}
		}
		b.GPUTime[op] = res.GPUTime(op)
	}
	return b
}

// OpTotal sums an operation's CPU cells (GPU overlaps CPU, so this is the
// operation's critical-path time).
func (b *Breakdown) OpTotal(op string) vclock.Duration {
	var total vclock.Duration
	for _, cat := range CPUCategories {
		total += b.Cells[CellKey{op, cat}]
	}
	return total
}

// TotalGPU sums device time across operations.
func (b *Breakdown) TotalGPU() vclock.Duration {
	var total vclock.Duration
	for _, d := range b.GPUTime {
		total += d
	}
	return total
}

// Table renders a set of breakdowns as an aligned text table: one row per
// (workload, operation), columns per category plus GPU — the textual form
// of a stacked bar chart.
func Table(title string, rows []*Breakdown) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	w := tabWriter(&sb)
	fmt.Fprintf(w, "workload\toperation\ttotal\tSimulator\tPython\tCUDA\tBackend\tNetwork\tGPU\tGPU%%\n")
	for _, b := range rows {
		for _, op := range b.Ops {
			opTotal := b.OpTotal(op)
			if opTotal == 0 {
				continue
			}
			gpu := b.GPUTime[op]
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.1f%%\n",
				b.Label, op, fmtDur(opTotal),
				fmtDur(b.Cells[CellKey{op, trace.CatSimulator}]),
				fmtDur(b.Cells[CellKey{op, trace.CatPython}]),
				fmtDur(b.Cells[CellKey{op, trace.CatCUDA}]),
				fmtDur(b.Cells[CellKey{op, trace.CatBackend}]),
				fmtDur(b.Cells[CellKey{op, trace.CatNetwork}]),
				fmtDur(gpu),
				pct(gpu, opTotal))
		}
		fmt.Fprintf(w, "%s\t(total)\t%s\t\t\t\t\t\t%s\t%.1f%%\n",
			b.Label, fmtDur(b.Total), fmtDur(b.TotalGPU()), pct(b.TotalGPU(), b.Total))
	}
	w.flush()
	return sb.String()
}

// CSV renders the same data as comma-separated values with a header.
func CSV(rows []*Breakdown) string {
	var sb strings.Builder
	sb.WriteString("workload,operation,total_sec,simulator_sec,python_sec,cuda_sec,backend_sec,network_sec,gpu_sec\n")
	for _, b := range rows {
		for _, op := range b.Ops {
			fmt.Fprintf(&sb, "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
				csvEscape(b.Label), csvEscape(op),
				b.OpTotal(op).Seconds(),
				b.Cells[CellKey{op, trace.CatSimulator}].Seconds(),
				b.Cells[CellKey{op, trace.CatPython}].Seconds(),
				b.Cells[CellKey{op, trace.CatCUDA}].Seconds(),
				b.Cells[CellKey{op, trace.CatBackend}].Seconds(),
				b.Cells[CellKey{op, trace.CatNetwork}].Seconds(),
				b.GPUTime[op].Seconds())
		}
	}
	return sb.String()
}

// TransitionRow is one bar of Figures 4c/4d.
type TransitionRow struct {
	Label string
	Op    string
	// Counts per transition label.
	Backend, Simulator, CUDA int
}

// Transitions extracts per-op transition counts from an overlap result.
func Transitions(label string, res *overlap.Result, ops []string) []TransitionRow {
	if ops == nil {
		ops = res.OpNames()
	}
	var out []TransitionRow
	for _, op := range ops {
		out = append(out, TransitionRow{
			Label:     label,
			Op:        op,
			Backend:   res.TransitionCount(op, trace.TransPythonToBackend),
			Simulator: res.TransitionCount(op, trace.TransPythonToSimulator),
			CUDA:      res.TransitionCount(op, trace.TransBackendToCUDA),
		})
	}
	return out
}

// TransitionTable renders transition rows.
func TransitionTable(title string, rows []TransitionRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	w := tabWriter(&sb)
	fmt.Fprintf(w, "workload\toperation\tPython→Backend\tPython→Simulator\tBackend→CUDA\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", r.Label, r.Op, r.Backend, r.Simulator, r.CUDA)
	}
	w.flush()
	return sb.String()
}

// fmtDur renders a duration in seconds with ms precision.
func fmtDur(d vclock.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4fs", d.Seconds())
}

func pct(num, den vclock.Duration) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num.Seconds() / den.Seconds()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// minimal tab alignment without text/tabwriter-style trailing-cell quirks.
type aligner struct {
	out  *strings.Builder
	rows [][]string
}

func tabWriter(out *strings.Builder) *aligner { return &aligner{out: out} }

func (a *aligner) Write(p []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		a.rows = append(a.rows, strings.Split(line, "\t"))
	}
	return len(p), nil
}

func (a *aligner) flush() {
	var widths []int
	for _, row := range a.rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range a.rows {
		for i, cell := range row {
			fmt.Fprintf(a.out, "%-*s", widths[i]+2, cell)
		}
		a.out.WriteString("\n")
	}
}

// PhaseTable renders per-process training-phase breakdowns (paper §3.1's
// rls.set_phase; Minigo's selfplay / sgd_updates / evaluation), naming each
// process by ProcName.
func PhaseTable(title string, phases map[trace.ProcID][]overlap.PhaseBreakdown, meta trace.Meta) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	w := tabWriter(&sb)
	fmt.Fprintf(w, "process\tphase\tduration\tCPU\tGPU\tGPU%%\n")
	var procs []trace.ProcID
	for p := range phases {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, p := range procs {
		name := ProcName(meta, p)
		for _, ph := range phases[p] {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%.1f%%\n",
				name, ph.Name, fmtDur(ph.Duration()), fmtDur(ph.CPU), fmtDur(ph.GPU),
				pct(ph.GPU, ph.Duration()))
		}
	}
	w.flush()
	return sb.String()
}

// SortedOps returns the standard operation display order when present.
func SortedOps(res *overlap.Result) []string {
	order := map[string]int{"backpropagation": 0, "inference": 1, "simulation": 2, "communication": 3}
	ops := res.OpNames()
	sort.Slice(ops, func(i, j int) bool {
		oi, iok := order[ops[i]]
		oj, jok := order[ops[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return ops[i] < ops[j]
		}
	})
	return ops
}
