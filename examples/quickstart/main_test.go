package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// call runs the example and returns its exit status, stdout and stderr.
func call(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitStatus pins the exit status of each way a run can end: usage
// errors exit 2 with nothing on stdout, failures 1 and interruption 130.
func TestExitStatus(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		args []string
		want int
	}{
		{"help", context.Background(), []string{"-h"}, 0},
		{"unknown flag", context.Background(), []string{"-nope"}, 2},
		{"out below a file", context.Background(), []string{"-out", filepath.Join("main.go", "trace")}, 1},
		{"interrupted", cancelled, nil, 130},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := call(tc.ctx, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.want, stderr)
			}
			if code != 0 && stdout != "" {
				t.Errorf("exit %d with stdout %q", code, stdout)
			}
		})
	}
}

// TestQuickstartPrintsItsBreakdown runs the example as README shows it, with
// -out: it prints the breakdown table and writes a trace directory that
// trace.OpenDir opens.
func TestQuickstartPrintsItsBreakdown(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace")
	code, stdout, stderr := call(context.Background(), "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"wrote ", "== RL-Scope quickstart breakdown ==", "inference", "simulation", "backpropagation", "GPU-bound: "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	r, err := trace.OpenDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() == 0 || r.Meta().Workload != "quickstart" {
		t.Errorf("the written trace has %d chunks, workload %q", r.NumChunks(), r.Meta().Workload)
	}
}
