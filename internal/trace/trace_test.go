package trace

import (
	"testing"

	"repro/internal/vclock"
)

func cpuEvent(proc ProcID, cat Category, name string, start, end vclock.Time) Event {
	return Event{Kind: KindCPU, Cat: cat, Proc: proc, Start: start, End: end, Name: name}
}

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name    string
		e       Event
		wantErr bool
	}{
		{"valid cpu", cpuEvent(0, CatPython, "x", 0, 10), false},
		{"cpu with gpu cat", Event{Kind: KindCPU, Cat: CatGPUKernel, End: 1}, true},
		{"gpu with cpu cat", Event{Kind: KindGPU, Cat: CatPython, End: 1}, true},
		{"valid gpu", Event{Kind: KindGPU, Cat: CatGPUKernel, End: 1, Name: "k"}, false},
		{"negative duration", Event{Kind: KindCPU, Cat: CatPython, Start: 5, End: 1}, true},
		{"op without name", Event{Kind: KindOp, End: 1}, true},
		{"valid op", Event{Kind: KindOp, Name: "step", End: 1}, false},
		{"overhead without kind", Event{Kind: KindOverhead}, true},
		{"valid overhead", Event{Kind: KindOverhead, Overhead: OverheadCUPTI, Name: "cudaLaunchKernel"}, false},
		{"transition without label", Event{Kind: KindTransition}, true},
		{"valid transition", Event{Kind: KindTransition, Name: TransPythonToBackend}, false},
		{"unknown kind", Event{Kind: EventKind(99)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.e.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestCategoryClassification(t *testing.T) {
	for _, c := range []Category{CatPython, CatSimulator, CatBackend, CatCUDA} {
		if !c.IsCPU() || c.IsGPU() {
			t.Fatalf("%v should be CPU-only", c)
		}
	}
	for _, c := range []Category{CatGPUKernel, CatGPUMemcpy} {
		if c.IsCPU() || !c.IsGPU() {
			t.Fatalf("%v should be GPU-only", c)
		}
	}
}

func TestCPURankOrdering(t *testing.T) {
	if !(CatPython.CPURank() < CatBackend.CPURank() && CatBackend.CPURank() < CatCUDA.CPURank()) {
		t.Fatal("CPU rank must order Python < Backend < CUDA")
	}
	if CatSimulator.CPURank() != CatBackend.CPURank() {
		t.Fatal("Simulator and Backend sit at the same stack depth")
	}
	if CatGPUKernel.CPURank() != 0 {
		t.Fatal("GPU categories have no CPU rank")
	}
}

func TestTraceSortNestsEnclosingFirst(t *testing.T) {
	tr := &Trace{Events: []Event{
		cpuEvent(0, CatBackend, "inner", 5, 10),
		cpuEvent(0, CatPython, "outer", 0, 20),
		cpuEvent(0, CatCUDA, "deep", 5, 8),
		cpuEvent(1, CatPython, "p1", 0, 3),
	}}
	tr.Sort()
	got := []string{tr.Events[0].Name, tr.Events[1].Name, tr.Events[2].Name, tr.Events[3].Name}
	want := []string{"outer", "inner", "deep", "p1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort order = %v, want %v", got, want)
		}
	}
}

func TestProcEvents(t *testing.T) {
	tr := &Trace{Events: []Event{
		cpuEvent(2, CatPython, "c", 0, 1),
		cpuEvent(0, CatPython, "a", 0, 1),
		cpuEvent(2, CatPython, "d", 1, 2),
		cpuEvent(1, CatPython, "b", 0, 1),
	}}
	if got := len(tr.ProcEvents(2)); got != 2 {
		t.Fatalf("ProcEvents(2) has %d events, want 2", got)
	}
	if got := len(tr.ProcEvents(3)); got != 0 {
		t.Fatalf("ProcEvents(3) has %d events, want 0", got)
	}
	ids := tr.ProcIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("ProcIDs = %v", ids)
	}
}

func TestTraceSpan(t *testing.T) {
	tr := &Trace{Events: []Event{
		cpuEvent(0, CatPython, "a", 5, 8),
		cpuEvent(0, CatPython, "b", 2, 4),
		{Kind: KindGPU, Cat: CatGPUKernel, Name: "k", Start: 7, End: 12},
	}}
	start, end := tr.Span()
	if start != 2 || end != 12 {
		t.Fatalf("Span = [%v, %v], want [2, 12]", start, end)
	}
}

func TestValidateAcceptsProperNesting(t *testing.T) {
	tr := &Trace{Events: []Event{
		cpuEvent(0, CatPython, "root", 0, 100),
		cpuEvent(0, CatBackend, "call1", 10, 40),
		cpuEvent(0, CatCUDA, "api", 15, 20),
		cpuEvent(0, CatBackend, "call2", 40, 60),
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejectsPartialOverlap(t *testing.T) {
	tr := &Trace{Events: []Event{
		cpuEvent(0, CatPython, "a", 0, 50),
		cpuEvent(0, CatBackend, "b", 40, 80), // straddles a's end
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate() accepted partially overlapping CPU events")
	}
}

func TestValidateAllowsCrossKindOverlap(t *testing.T) {
	// GPU events legally straddle CPU event boundaries.
	tr := &Trace{Events: []Event{
		cpuEvent(0, CatPython, "a", 0, 50),
		{Kind: KindGPU, Cat: CatGPUKernel, Name: "k", Start: 40, End: 90},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestFeatureFlags(t *testing.T) {
	if Uninstrumented().Any() {
		t.Fatal("Uninstrumented().Any() = true")
	}
	if !Full().Any() {
		t.Fatal("Full().Any() = false")
	}
	if got := Uninstrumented().String(); got != "uninstrumented" {
		t.Fatalf("String() = %q", got)
	}
	if got := Full().String(); got != "annot+intercept+cuda+cupti" {
		t.Fatalf("String() = %q", got)
	}
	if got := (FeatureFlags{CUPTI: true}).String(); got != "cupti" {
		t.Fatalf("String() = %q", got)
	}
}

func TestCountKind(t *testing.T) {
	tr := &Trace{Events: []Event{
		cpuEvent(0, CatPython, "a", 0, 1),
		{Kind: KindTransition, Name: TransBackendToCUDA},
		{Kind: KindTransition, Name: TransPythonToBackend},
	}}
	if got := tr.CountKind(KindTransition); got != 2 {
		t.Fatalf("CountKind(transition) = %d, want 2", got)
	}
	if got := tr.CountKind(KindGPU); got != 0 {
		t.Fatalf("CountKind(gpu) = %d, want 0", got)
	}
}

func TestKindAndOverheadStrings(t *testing.T) {
	if KindCPU.String() != "cpu" || KindOverhead.String() != "overhead" {
		t.Fatal("EventKind.String misnamed")
	}
	if OverheadCUPTI.String() != "CUPTI" {
		t.Fatalf("OverheadCUPTI.String() = %q", OverheadCUPTI.String())
	}
	if OverheadInterception.String() != "Python interception" {
		t.Fatalf("OverheadInterception.String() = %q", OverheadInterception.String())
	}
}
