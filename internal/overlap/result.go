package overlap

import (
	"sort"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// OpNames returns the sorted set of operations appearing in the result,
// excluding UntrackedOp unless it accumulated time.
func (r *Result) OpNames() []string {
	seen := map[string]bool{}
	for k := range r.ByKey {
		seen[k.Op] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Dur returns the accumulated duration for one exact breakdown cell.
func (r *Result) Dur(op string, res ResourceSet, cat trace.Category) vclock.Duration {
	return r.ByKey[Key{Op: op, Res: res, Cat: cat}]
}

// OpTotal returns all time attributed to an operation across every resource
// set and category.
func (r *Result) OpTotal(op string) vclock.Duration {
	var total vclock.Duration
	for k, d := range r.ByKey {
		if k.Op == op {
			total += d
		}
	}
	return total
}

// Total returns all attributed time across every operation. For a
// single-threaded process with no idle gaps this equals total training time.
func (r *Result) Total() vclock.Duration {
	var total vclock.Duration
	for _, d := range r.ByKey {
		total += d
	}
	return total
}

// CPUTime returns time the CPU was busy within op (CPU-only plus CPU+GPU).
func (r *Result) CPUTime(op string) vclock.Duration {
	var total vclock.Duration
	for k, d := range r.ByKey {
		if k.Op == op && k.Res&ResCPU != 0 {
			total += d
		}
	}
	return total
}

// GPUTime returns time the GPU was busy within op (GPU-only plus CPU+GPU).
// This is the paper's "time spent executing GPU kernels" metric — the honest
// counterpart of nvidia-smi utilization.
func (r *Result) GPUTime(op string) vclock.Duration {
	var total vclock.Duration
	for k, d := range r.ByKey {
		if k.Op == op && k.Res&ResGPU != 0 {
			total += d
		}
	}
	return total
}

// TotalGPUTime returns GPU-busy time across all operations.
func (r *Result) TotalGPUTime() vclock.Duration {
	var total vclock.Duration
	for k, d := range r.ByKey {
		if k.Res&ResGPU != 0 {
			total += d
		}
	}
	return total
}

// CategoryCPUTime returns CPU time attributed to one stack tier within op,
// including intervals where the GPU was simultaneously busy.
func (r *Result) CategoryCPUTime(op string, cat trace.Category) vclock.Duration {
	var total vclock.Duration
	for k, d := range r.ByKey {
		if k.Op == op && k.Res&ResCPU != 0 && k.Cat == cat {
			total += d
		}
	}
	return total
}

// TotalCategoryCPUTime returns CPU time in one tier across all operations.
func (r *Result) TotalCategoryCPUTime(cat trace.Category) vclock.Duration {
	var total vclock.Duration
	for op := range opSet(r) {
		total += r.CategoryCPUTime(op, cat)
	}
	return total
}

func opSet(r *Result) map[string]bool {
	set := map[string]bool{}
	for k := range r.ByKey {
		set[k.Op] = true
	}
	return set
}

// TransitionCount returns the number of transitions with the given label
// scoped to op.
func (r *Result) TransitionCount(op, label string) int {
	return r.Transitions[TransitionKey{Op: op, Label: label}]
}

// TotalTransitions returns the count of transitions with the given label
// across all operations.
func (r *Result) TotalTransitions(label string) int {
	total := 0
	for k, n := range r.Transitions {
		if k.Label == label {
			total += n
		}
	}
	return total
}

// ComputeTrace runs the overlap sweep independently for each process in the
// trace, mirroring the paper's per-process analysis (Figure 8 shows one bar
// per process).
func ComputeTrace(t *trace.Trace) map[trace.ProcID]*Result {
	out := map[trace.ProcID]*Result{}
	for _, p := range t.ProcIDs() {
		out[p] = Compute(t.ProcEvents(p))
	}
	return out
}
