package nn

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baselineAsm is every instruction the amd64 kernels may use: SSE2 and the
// integer and control-flow instructions of amd64's baseline. An AVX or FMA
// instruction would need a CPU check and a second path, and a fused
// multiply-add would change the bits; neither is on it.
var baselineAsm = map[string]bool{
	"MOVQ": true, "XORQ": true, "ANDQ": true, "ADDQ": true, "CMPQ": true,
	"JGE": true, "JMP": true, "RET": true,
	"MOVSD": true, "MOVUPD": true, "UNPCKLPD": true,
	"MULSD": true, "MULPD": true, "ADDSD": true, "ADDPD": true,
}

// TestNNAsmIsBaselineSSE2 reads every amd64 assembly file of the package
// and fails on an instruction outside baselineAsm.
func TestNNAsmIsBaselineSSE2(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no *_amd64.s files to check (%v)", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for i, line := range strings.Split(string(data), "\n") {
			line, _, _ = strings.Cut(line, "//")
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") ||
				fields[0] == "TEXT" || strings.HasSuffix(fields[0], ":") {
				continue
			}
			seen++
			if !baselineAsm[fields[0]] {
				t.Errorf("%s:%d: %s is not on the SSE2 baseline list", name, i+1, fields[0])
			}
		}
		if seen == 0 {
			t.Errorf("%s: no instructions read", name)
		}
	}
}
