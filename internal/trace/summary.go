package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vclock"
)

// Summary is aggregate statistics over a trace: event counts and busy time
// per category, plus the heaviest GPU kernels. It is the quick-look view
// rlscope-analyze prints before the full breakdown.
type Summary struct {
	Events     int
	Procs      int
	Span       vclock.Duration
	ByKind     map[EventKind]int
	ByCategory map[Category]CategoryStats
	// TopKernels are the GPU kernel names with the largest total device
	// time, descending.
	TopKernels []KernelStat
}

// CategoryStats aggregates one stack tier.
type CategoryStats struct {
	Events int
	Total  vclock.Duration
}

// KernelStat is one kernel name's aggregate device time.
type KernelStat struct {
	Name  string
	Count int
	Total vclock.Duration
}

// Summarize computes trace statistics.
func Summarize(t *Trace) *Summary {
	s := &Summary{
		Events:     len(t.Events),
		Procs:      len(t.ProcIDs()),
		ByKind:     map[EventKind]int{},
		ByCategory: map[Category]CategoryStats{},
	}
	start, end := t.Span()
	s.Span = end.Sub(start)
	kernels := map[string]KernelStat{}
	for _, e := range t.Events {
		s.ByKind[e.Kind]++
		if e.Kind == KindCPU || e.Kind == KindGPU {
			cs := s.ByCategory[e.Cat]
			cs.Events++
			cs.Total += e.Duration()
			s.ByCategory[e.Cat] = cs
			if e.Kind == KindGPU && e.Cat == CatGPUKernel {
				k := kernels[e.Name]
				k.Name = e.Name
				k.Count++
				k.Total += e.Duration()
				kernels[e.Name] = k
			}
		}
	}
	for _, k := range kernels {
		s.TopKernels = append(s.TopKernels, k)
	}
	sort.Slice(s.TopKernels, func(i, j int) bool {
		if s.TopKernels[i].Total != s.TopKernels[j].Total {
			return s.TopKernels[i].Total > s.TopKernels[j].Total
		}
		return s.TopKernels[i].Name < s.TopKernels[j].Name
	})
	const keep = 10
	if len(s.TopKernels) > keep {
		s.TopKernels = s.TopKernels[:keep]
	}
	return s
}

// String renders the summary as text.
func (s *Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "events: %d across %d process(es), span %v\n", s.Events, s.Procs, s.Span)
	var kinds []EventKind
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(&sb, "  %-12s %d\n", k.String()+":", s.ByKind[k])
	}
	var cats []Category
	for c := range s.ByCategory {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	sb.WriteString("busy time by category:\n")
	for _, c := range cats {
		cs := s.ByCategory[c]
		fmt.Fprintf(&sb, "  %-12s %v (%d events)\n", c.String()+":", cs.Total, cs.Events)
	}
	if len(s.TopKernels) > 0 {
		sb.WriteString("top GPU kernels:\n")
		for _, k := range s.TopKernels {
			fmt.Fprintf(&sb, "  %-32s %v (%d launches)\n", k.Name, k.Total, k.Count)
		}
	}
	return sb.String()
}
