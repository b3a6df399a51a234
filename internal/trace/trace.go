package trace

import (
	"fmt"
	"sort"

	"repro/internal/vclock"
)

// Trace is a fully loaded event trace for one run, spanning one or more
// simulated processes.
type Trace struct {
	// Events holds every event in the run, in no particular order until
	// Sort is called.
	Events []Event
	// Meta describes the run and its processes.
	Meta Meta
}

// Meta is run-level metadata stored alongside the event chunks.
type Meta struct {
	// Workload is a human-readable workload label, e.g. "td3-walker2d".
	Workload string `json:"workload"`
	// Host names the machine the trace was recorded on. rlscope-prof sets
	// it automatically (os.Hostname() unless -host overrides); distributed
	// runs give each simulated host its own name ("learner", "actor00").
	// multihost.Merge requires it and fleet queries expose it as the
	// `host` dimension. Empty on traces recorded before hosts existed.
	Host string `json:"host,omitempty"`
	// Labels are free-form key/value annotations attached at profiling
	// time (rlscope-prof -label k=v): algorithm, framework, simulator,
	// experiment id — whatever a fleet of runs later wants to filter and
	// group by. Labels live in meta.json, so they are part of the trace's
	// content digest and survive conversion and live ingest unchanged.
	Labels map[string]string `json:"labels,omitempty"`
	// Config records the profiler feature flags the run used; correction
	// needs to know which book-keeping paths were active.
	Config FeatureFlags `json:"config"`
	// Procs names each process, e.g. {0: "trainer", 1: "selfplay_worker_0"}.
	Procs map[ProcID]ProcInfo `json:"procs"`
}

// ProcInfo describes one simulated process.
type ProcInfo struct {
	Name string `json:"name"`
	// Parent is the process that forked this one (-1 for the root).
	Parent ProcID `json:"parent"`
}

// FeatureFlags records which profiler book-keeping paths were enabled during
// a run. Calibration runs workloads under differing flag subsets (paper
// Appendix C.1).
type FeatureFlags struct {
	Annotations   bool `json:"annotations"`    // operation/phase recording
	Interception  bool `json:"interception"`   // Python↔C wrappers
	CUDAIntercept bool `json:"cuda_intercept"` // librlscope CUDA hook
	CUPTI         bool `json:"cupti"`          // CUPTI activity collection
}

// Full returns the flag set with every book-keeping path enabled — a normal
// profiled run.
func Full() FeatureFlags {
	return FeatureFlags{Annotations: true, Interception: true, CUDAIntercept: true, CUPTI: true}
}

// Uninstrumented returns the flag set with all book-keeping disabled — the
// baseline run used to validate overhead correction.
func Uninstrumented() FeatureFlags { return FeatureFlags{} }

// Any reports whether any book-keeping path is enabled.
func (f FeatureFlags) Any() bool {
	return f.Annotations || f.Interception || f.CUDAIntercept || f.CUPTI
}

// String returns a compact flag summary like "annot+intercept+cuda+cupti".
func (f FeatureFlags) String() string {
	if !f.Any() {
		return "uninstrumented"
	}
	s := ""
	add := func(on bool, name string) {
		if !on {
			return
		}
		if s != "" {
			s += "+"
		}
		s += name
	}
	add(f.Annotations, "annot")
	add(f.Interception, "intercept")
	add(f.CUDAIntercept, "cuda")
	add(f.CUPTI, "cupti")
	return s
}

// Sort orders events by (process, start time, end time descending) so that
// enclosing events precede the events they contain. The overlap sweep and
// overhead correction both require this order.
func (t *Trace) Sort() {
	// The analysis hot path calls Sort once per ProcEvents lookup; an O(n)
	// order check keeps repeat calls cheap without caching sortedness
	// state that direct Events mutation could silently invalidate. The
	// check is a hand-inlined neighbor scan: the closure-based
	// sort.SliceIsSorted was a top profile entry at production trace scale.
	if t.isSorted() {
		return
	}
	sort.Stable(eventSorter(t.Events))
}

// eventSorter implements Sort's order as a concrete sort.Interface, which
// avoids sort.SliceStable's per-call reflection swapper allocation.
type eventSorter []Event

func (s eventSorter) Len() int      { return len(s) }
func (s eventSorter) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s eventSorter) Less(i, j int) bool {
	a, b := &s[i], &s[j]
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.End > b.End
}

// isSorted reports whether Events is already in Sort order.
func (t *Trace) isSorted() bool {
	evs := t.Events
	for i := 1; i < len(evs); i++ {
		a, b := &evs[i-1], &evs[i]
		if a.Proc != b.Proc {
			if a.Proc > b.Proc {
				return false
			}
			continue
		}
		if a.Start != b.Start {
			if a.Start > b.Start {
				return false
			}
			continue
		}
		if a.End < b.End {
			return false
		}
	}
	return true
}

// ProcEvents returns the events belonging to one process, in Sort order.
// The returned slice aliases t.Events.
func (t *Trace) ProcEvents(p ProcID) []Event {
	t.Sort()
	lo := sort.Search(len(t.Events), func(i int) bool { return t.Events[i].Proc >= p })
	hi := sort.Search(len(t.Events), func(i int) bool { return t.Events[i].Proc > p })
	return t.Events[lo:hi]
}

// ProcIDs returns the sorted set of process IDs present in the trace.
func (t *Trace) ProcIDs() []ProcID {
	seen := map[ProcID]bool{}
	for _, e := range t.Events {
		seen[e.Proc] = true
	}
	ids := make([]ProcID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Span returns the earliest start and latest end across all events.
func (t *Trace) Span() (start, end vclock.Time) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	start, end = t.Events[0].Start, t.Events[0].End
	for _, e := range t.Events[1:] {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end
}

// Validate checks every event and the well-formedness of per-process
// nesting for CPU and operation events (events of the same kind on one
// process must nest like a call stack; they never partially overlap).
func (t *Trace) Validate() error {
	for i, e := range t.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	t.Sort()
	for _, p := range t.ProcIDs() {
		if err := checkNesting(t.ProcEvents(p), KindCPU); err != nil {
			return fmt.Errorf("proc %d CPU events: %w", p, err)
		}
		if err := checkNesting(t.ProcEvents(p), KindOp); err != nil {
			return fmt.Errorf("proc %d op events: %w", p, err)
		}
	}
	return nil
}

// checkNesting verifies stack-like nesting for events of one kind within a
// single process's sorted event list.
func checkNesting(events []Event, kind EventKind) error {
	var stack []Event
	for _, e := range events {
		if e.Kind != kind {
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].End <= e.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && e.End > stack[len(stack)-1].End {
			top := stack[len(stack)-1]
			return fmt.Errorf("event %q [%v,%v] partially overlaps %q [%v,%v]",
				e.Name, e.Start, e.End, top.Name, top.Start, top.End)
		}
		stack = append(stack, e)
	}
	return nil
}

// CountKind returns the number of events of the given kind.
func (t *Trace) CountKind(k EventKind) int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
