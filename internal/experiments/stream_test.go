package experiments

import "testing"

// TestStreamReplayFindings asserts the streaming extension's claims: the
// chunked replay reproduces the materialized analysis exactly while keeping
// peak residency strictly below both the budget's materialized footprint
// and the trace size.
func TestStreamReplayFindings(t *testing.T) {
	r, err := StreamReplay(Options{Steps: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Fatal("streamed breakdown differs from materialized analysis")
	}
	if r.Chunks < 2 {
		t.Fatalf("trace produced %d chunks; streaming needs several", r.Chunks)
	}
	if r.Stats.PeakResidentEvents >= r.Events {
		t.Fatalf("peak resident %d events not below trace size %d", r.Stats.PeakResidentEvents, r.Events)
	}
	if r.Stats.Events != r.Events {
		t.Fatalf("streamed %d events, trace has %d", r.Stats.Events, r.Events)
	}
}
