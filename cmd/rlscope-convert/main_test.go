package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// call runs the command and returns its exit status, stdout and stderr.
func call(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeTrace profiles a short run into a v1 trace directory, as
// rlscope-prof -out does.
func writeTrace(t *testing.T) string {
	t.Helper()
	stats, err := workloads.Run(workloads.Spec{Algo: "PPO2", Env: "Hopper", Model: backend.Graph, TotalSteps: 200, Seed: 1}, trace.Full())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := trace.NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(stats.Trace.Events...)
	if err := w.Close(stats.Trace.Meta); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestExitStatus pins the exit status of each way a run can end: usage
// errors exit 2 with nothing on stdout, failures 1 and interruption 130.
func TestExitStatus(t *testing.T) {
	src := writeTrace(t)
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
		{"no in", context.Background(), []string{"-out", t.TempDir()}, 2},
		{"no out", context.Background(), []string{"-in", src}, 2},
		{"missing source", context.Background(), []string{"-in", filepath.Join(t.TempDir(), "missing"), "-out", t.TempDir()}, 1},
		{"interrupted", cancelled, []string{"-in", src, "-out", t.TempDir()}, 130},
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

// TestConvertReportsVerifiedDigests checks that a conversion writes v2
// chunks of the same events and reports the digests of both directories.
func TestConvertReportsVerifiedDigests(t *testing.T) {
	src, dst := writeTrace(t), filepath.Join(t.TempDir(), "v2")
	code, stdout, stderr := call(context.Background(), "-in", src, "-out", dst)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	srcDigest, err := trace.DirDigest(src)
	if err != nil {
		t.Fatal(err)
	}
	dstDigest, err := trace.DirDigest(dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		" to " + trace.FormatV2.String() + "\n",
		"verified: round-trip digest matches source digest " + srcDigest + "\n",
		"destination digest: " + dstDigest + "\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	a, err := trace.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ReadDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 || len(a.Events) != len(b.Events) {
		t.Errorf("converted %d events to %d", len(a.Events), len(b.Events))
	}
}
