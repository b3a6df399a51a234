package overlap

import (
	"sort"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// PhaseBreakdown summarizes one training phase (paper §3.1's
// rls.set_phase): its extent and the CPU and GPU time inside it.
// Minigo's three phases — selfplay, sgd_updates, evaluation — are the
// paper's example.
type PhaseBreakdown struct {
	Name       string
	Start, End vclock.Time
	// CPU is CPU-busy time within the phase (including CPU+GPU overlap);
	// GPU is device-busy time within the phase.
	CPU, GPU vclock.Duration
}

// Duration returns the phase extent.
func (p PhaseBreakdown) Duration() vclock.Duration { return p.End.Sub(p.Start) }

// Phases computes per-phase breakdowns for one process's events. Phases are
// non-overlapping by construction (SetPhase closes the previous phase);
// events spanning a phase boundary contribute the clipped portion.
func Phases(events []trace.Event) []PhaseBreakdown {
	var phases []PhaseBreakdown
	for _, e := range events {
		if e.Kind == trace.KindPhase && e.End > e.Start {
			phases = append(phases, PhaseBreakdown{Name: e.Name, Start: e.Start, End: e.End})
		}
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].Start < phases[j].Start })
	if len(phases) == 0 {
		return nil
	}
	// One pooled sweeper and one Result serve every phase window: the
	// sweeper's scratch buffers are sized by the first sweep and reused by
	// the rest, and the Result is cleared and refilled per window.
	sw := GetSweeper()
	defer PutSweeper(sw)
	var res Result
	for pi := range phases {
		p := &phases[pi]
		// Run the overlap sweep restricted to the phase window; only its
		// resource sums are consumed, so the per-operation and category
		// splits (and the transition counts) collapse back out.
		sw.ComputeWindowInto(&res, events, p.Start, p.End)
		for k, d := range res.ByKey {
			if k.Res&ResCPU != 0 {
				p.CPU += d
			}
			if k.Res&ResGPU != 0 {
				p.GPU += d
			}
		}
	}
	return phases
}

// PhasesByProc computes phase breakdowns for every process in the trace.
func PhasesByProc(t *trace.Trace) map[trace.ProcID][]PhaseBreakdown {
	out := map[trace.ProcID][]PhaseBreakdown{}
	for _, p := range t.ProcIDs() {
		if ph := Phases(t.ProcEvents(p)); ph != nil {
			out[p] = ph
		}
	}
	return out
}
