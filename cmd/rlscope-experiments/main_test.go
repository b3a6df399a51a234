package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// call runs the command and returns its exit status, stdout and stderr.
func call(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitStatus pins the exit status of each way a run can end: usage
// errors exit 2 with nothing on stdout, and interruption 130. An unknown id
// or a negative step budget is refused before anything runs, so the known
// id beside it prints nothing.
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
		{"unknown id", context.Background(), []string{"-run", "fig3,nope"}, 2},
		{"negative steps", context.Background(), []string{"-run", "fig3", "-steps", "-1"}, 2},
		{"interrupted", cancelled, []string{"-run", "fig3"}, 130},
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

// TestFigure3PrintsThePaperValues checks that -run fig3 prints the measured
// value the paper's Figure 3 reports.
func TestFigure3PrintsThePaperValues(t *testing.T) {
	code, stdout, stderr := call(context.Background(), "-run", "fig3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "measured=1.25ms") {
		t.Errorf("fig3 does not print measured=1.25ms:\n%s", stdout)
	}
}
