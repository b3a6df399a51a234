package trace

import (
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Kind: KindCPU, Cat: CatPython, Proc: 0, Start: 0, End: 100, Name: "python"},
		{Kind: KindCPU, Cat: CatCUDA, Proc: 0, Start: 10, End: 20, Name: "cudaLaunchKernel"},
		{Kind: KindGPU, Cat: CatGPUKernel, Proc: 0, Start: 15, End: 40, Name: "matmul"},
		{Kind: KindGPU, Cat: CatGPUKernel, Proc: 0, Start: 45, End: 55, Name: "matmul"},
		{Kind: KindGPU, Cat: CatGPUKernel, Proc: 1, Start: 0, End: 5, Name: "bias_add"},
		{Kind: KindTransition, Proc: 0, Start: 9, End: 9, Name: TransBackendToCUDA},
		{Kind: KindOverhead, Overhead: OverheadCUPTI, Proc: 0, Start: 11, End: 11, Name: "cudaLaunchKernel"},
	}}
	s := Summarize(tr)
	if s.Events != 7 || s.Procs != 2 {
		t.Fatalf("events=%d procs=%d", s.Events, s.Procs)
	}
	if s.Span != 100 {
		t.Fatalf("span = %v", s.Span)
	}
	if s.ByKind[KindGPU] != 3 || s.ByKind[KindCPU] != 2 {
		t.Fatalf("ByKind = %v", s.ByKind)
	}
	if got := s.ByCategory[CatGPUKernel]; got.Events != 3 || got.Total != 40 {
		t.Fatalf("gpu kernel stats = %+v", got)
	}
	if len(s.TopKernels) != 2 || s.TopKernels[0].Name != "matmul" || s.TopKernels[0].Total != 35 {
		t.Fatalf("top kernels = %+v", s.TopKernels)
	}
	out := s.String()
	for _, want := range []string{"matmul", "GPU kernel", "2 process"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary text missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(&Trace{})
	if s.Events != 0 || s.Span != 0 || len(s.TopKernels) != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeTopKernelCap(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 25; i++ {
		tr.Events = append(tr.Events, Event{
			Kind: KindGPU, Cat: CatGPUKernel,
			Start: 0, End: 10, Name: string(rune('a' + i)),
		})
	}
	if got := len(Summarize(tr).TopKernels); got != 10 {
		t.Fatalf("top kernels = %d, want capped at 10", got)
	}
}
