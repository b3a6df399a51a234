package trace

import (
	"slices"

	"repro/internal/vclock"
)

// Shard is one unit of parallel offline analysis: a (process, phase) slice
// of the trace. The window [Lo, Hi) is half-open; the windows of one
// process partition the entire timeline, so per-shard analyses merge to
// exactly the whole-process analysis. Events holds the process's events
// overlapping the window, unclipped — the analysis engine restricts
// accumulation to the window instead of truncating events, which is what
// makes the merge exact.
type Shard struct {
	// Proc is the process the shard belongs to.
	Proc ProcID
	// Phase is the name of the phase covering the window, or "" for the
	// slices of the timeline outside any phase annotation.
	Phase string
	// Lo and Hi bound the analysis window. The first shard of a process
	// extends to vclock.MinTime and the last to vclock.MaxTime.
	Lo, Hi vclock.Time
	// Events holds the process events overlapping [Lo, Hi); an event
	// spanning several windows appears in each of their shards. For a
	// process with phase windows the slice is a copy; a process covered by
	// a single full-timeline window aliases the trace's (sorted) slice, so
	// treat shard events as read-only.
	Events []Event
}

// Shards splits the trace into per-(process, phase) analysis shards. A
// process without phase annotations yields one shard spanning the whole
// timeline; a process with phases yields one shard per phase window plus
// shards for any uncovered gaps. Windows containing no events are dropped.
func (t *Trace) Shards() []Shard {
	t.Sort()
	var shards []Shard
	// Events are (proc, start)-sorted, so per-process slices are found by a
	// single pass instead of a ProcIDs map build plus per-process binary
	// searches (each of which re-ran Sort's O(n) order check).
	for first := 0; first < len(t.Events); {
		p := t.Events[first].Proc
		past := first + 1
		for past < len(t.Events) && t.Events[past].Proc == p {
			past++
		}
		events := t.Events[first:past]
		first = past
		windows := PhasePartition(events)
		if len(windows) == 1 {
			// Single full-timeline window (no phase annotations): the
			// shard covers every event of the process, so it can alias
			// the trace's slice instead of copying it.
			shards = append(shards, Shard{
				Proc: p, Phase: windows[0].Phase,
				Lo: windows[0].Lo, Hi: windows[0].Hi,
				Events: events,
			})
			continue
		}
		// Windows ascend and events are Start-sorted, so the scan for
		// each window starts past the prefix of events that ended before
		// the window and stops at the first event starting after it.
		base := 0
		for _, w := range windows {
			for base < len(events) && DeadBefore(events[base], w.Lo) {
				base++
			}
			sh := Shard{Proc: p, Phase: w.Phase, Lo: w.Lo, Hi: w.Hi}
			for _, e := range events[base:] {
				if e.Start >= w.Hi {
					break
				}
				if OverlapsWindow(e, w.Lo, w.Hi) {
					sh.Events = append(sh.Events, e)
				}
			}
			if len(sh.Events) > 0 {
				shards = append(shards, sh)
			}
		}
	}
	return shards
}

// OverlapsWindow reports whether the event intersects [lo, hi): interval
// events by extent, point markers by membership of their instant. The
// streaming analysis engine routes events to shards with the same predicate
// Shards uses, which is what keeps the two paths byte-identical.
func OverlapsWindow(e Event, lo, hi vclock.Time) bool {
	if e.IsPoint() {
		return lo <= e.Start && e.Start < hi
	}
	return e.End > lo && e.Start < hi
}

// DeadBefore reports whether the event ends strictly before lo and so can
// overlap neither a window starting at lo nor any later one. The streaming
// engine uses it to drop events whose windows have been finalized while
// carrying still-open intervals forward.
func DeadBefore(e Event, lo vclock.Time) bool {
	if e.IsPoint() {
		return e.Start < lo
	}
	return e.End <= lo
}

// Window is one slice of a process's timeline in the per-phase partition:
// the half-open extent [Lo, Hi) and the innermost phase covering it ("" for
// time outside every phase annotation). The windows of one process partition
// the whole timeline, which is what makes per-window analyses merge exactly.
type Window struct {
	Phase  string
	Lo, Hi vclock.Time
}

// PhasePartition derives the partition of one process's timeline from its
// phase annotations: cut points at every phase boundary, windows between
// consecutive cuts, labelled by the innermost phase covering them. Only
// KindPhase events with positive extent participate; any other events in the
// slice are ignored, so callers may pass a full event list (Shards) or just
// the phase events collected from chunk sidecars (the streaming planner).
func PhasePartition(events []Event) []Window {
	nphases := 0
	for _, e := range events {
		if e.Kind == KindPhase && e.End > e.Start {
			nphases++
		}
	}
	if nphases == 0 {
		return []Window{{Lo: vclock.MinTime, Hi: vclock.MaxTime}}
	}
	phases := make([]Event, 0, nphases)
	// Cut points, sorted and deduplicated in place: MinTime, every phase
	// boundary, MaxTime. No set map — the streaming planner calls this once
	// per process per run, so the partition should cost three exact
	// allocations (phases, bounds, windows), not a hash table.
	bounds := make([]vclock.Time, 0, 2*nphases+2)
	bounds = append(bounds, vclock.MinTime)
	for _, e := range events {
		if e.Kind == KindPhase && e.End > e.Start {
			phases = append(phases, e)
			bounds = append(bounds, e.Start, e.End)
		}
	}
	bounds = append(bounds, vclock.MaxTime)
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)

	windows := make([]Window, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		windows = append(windows, Window{Phase: coveringPhase(phases, lo, hi), Lo: lo, Hi: hi})
	}
	return windows
}

// coveringPhase returns the name of the innermost (latest-starting) phase
// fully covering [lo, hi), or "" when the window lies outside every phase.
// Cut-point construction guarantees a window is never partially covered.
func coveringPhase(phases []Event, lo, hi vclock.Time) string {
	name := ""
	var bestStart vclock.Time = vclock.MinTime
	found := false
	for _, p := range phases {
		if p.Start <= lo && hi <= p.End && (!found || p.Start >= bestStart) {
			name, bestStart, found = p.Name, p.Start, true
		}
	}
	return name
}
