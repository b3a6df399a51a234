package overlap

import (
	"testing"

	"repro/internal/trace"
)

func TestPhasesClipAndAttribute(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindPhase, Name: "collect", Start: 0, End: 100},
		{Kind: trace.KindPhase, Name: "train", Start: 100, End: 200},
		// CPU event spanning the boundary: 60 in collect, 40 in train.
		{Kind: trace.KindCPU, Cat: trace.CatPython, Name: "python", Start: 40, End: 140},
		// Backend call fully inside train.
		{Kind: trace.KindCPU, Cat: trace.CatBackend, Name: "run", Start: 110, End: 130},
		// GPU kernel inside train.
		{Kind: trace.KindGPU, Cat: trace.CatGPUKernel, Name: "k", Start: 150, End: 170},
	}
	phases := Phases(events)
	if len(phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(phases))
	}
	collect, train := phases[0], phases[1]
	if collect.Name != "collect" || train.Name != "train" {
		t.Fatalf("phase order wrong: %v, %v", collect.Name, train.Name)
	}
	if collect.CPU != 60 {
		t.Errorf("collect CPU = %v, want 60", collect.CPU)
	}
	if collect.GPU != 0 {
		t.Errorf("collect GPU = %v, want 0", collect.GPU)
	}
	if train.CPU != 40 {
		t.Errorf("train CPU = %v, want 40 (python tail)", train.CPU)
	}
	if train.GPU != 20 {
		t.Errorf("train GPU = %v, want 20", train.GPU)
	}
	if train.Duration() != 100 {
		t.Errorf("train duration = %v, want 100", train.Duration())
	}
}

func TestPhasesEmptyWithoutAnnotations(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindCPU, Cat: trace.CatPython, Name: "p", Start: 0, End: 10},
	}
	if got := Phases(events); got != nil {
		t.Fatalf("Phases = %v, want nil", got)
	}
}

func TestPhasesByProc(t *testing.T) {
	tr := &trace.Trace{Events: []trace.Event{
		{Kind: trace.KindPhase, Proc: 0, Name: "a", Start: 0, End: 10},
		{Kind: trace.KindCPU, Cat: trace.CatPython, Proc: 0, Name: "p", Start: 0, End: 10},
		{Kind: trace.KindCPU, Cat: trace.CatPython, Proc: 1, Name: "p", Start: 0, End: 10},
	}}
	got := PhasesByProc(tr)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("PhasesByProc = %v", got)
	}
	if got[0][0].CPU != 10 {
		t.Fatalf("phase CPU = %v", got[0][0].CPU)
	}
}
