package main

import (
	"bytes"
	"context"
	"os"
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

// writeTrace profiles a short run into a v1 trace directory of several
// chunks, as rlscope-prof -out does.
func writeTrace(t *testing.T) string {
	t.Helper()
	stats, err := workloads.Run(workloads.Spec{Algo: "PPO2", Env: "Hopper", Model: backend.Graph, TotalSteps: 200, Seed: 1}, trace.Full())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := trace.NewWriter(dir, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(stats.Trace.Events...)
	if err := w.Close(stats.Trace.Meta); err != nil {
		t.Fatal(err)
	}
	return dir
}

// cancelAfter is a context that a signal reaches after its first checks
// Err calls: from then on it reads as cancelled.
type cancelAfter struct {
	context.Context
	checks int
}

func (c *cancelAfter) Err() error {
	if c.checks == 0 {
		return context.Canceled
	}
	c.checks--
	return nil
}

// TestExitStatus pins the exit status of each way a run can end: usage
// errors exit 2 with nothing on stdout, failures 1 and interruption 130. An
// interrupted conversion converts no chunk past the signal and leaves the
// destination unsealed.
func TestExitStatus(t *testing.T) {
	src := writeTrace(t)
	srcChunks, err := filepath.Glob(filepath.Join(src, "*.rlstrace"))
	if err != nil || len(srcChunks) < 3 {
		t.Fatalf("source has %d chunks (%v), want at least 3", len(srcChunks), err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		args   []string
		want   int
		chunks int // chunks the destination holds after an interruption
	}{
		{"help", context.Background(), []string{"-h"}, 0, 0},
		{"unknown flag", context.Background(), []string{"-nope"}, 2, 0},
		{"no in", context.Background(), []string{"-out", t.TempDir()}, 2, 0},
		{"no out", context.Background(), []string{"-in", src}, 2, 0},
		{"missing source", context.Background(), []string{"-in", filepath.Join(t.TempDir(), "missing"), "-out", t.TempDir()}, 1, 0},
		{"interrupted", cancelled, []string{"-in", src, "-out", filepath.Join(t.TempDir(), "v2")}, 130, 0},
		{"interrupted after a chunk", &cancelAfter{Context: context.Background(), checks: 1}, []string{"-in", src, "-out", filepath.Join(t.TempDir(), "v2")}, 130, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := call(tc.ctx, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.want, stderr)
			}
			if code != 0 && stdout != "" {
				t.Errorf("exit %d with stdout %q", code, stdout)
			}
			if code != 130 {
				return
			}
			dst := tc.args[len(tc.args)-1]
			if chunks, _ := filepath.Glob(filepath.Join(dst, "*.rlstrace")); len(chunks) != tc.chunks {
				t.Errorf("interrupted conversion wrote %d chunks, want %d", len(chunks), tc.chunks)
			}
			if _, err := os.Stat(filepath.Join(dst, "meta.json")); !os.IsNotExist(err) {
				t.Errorf("interrupted conversion sealed its destination: %v", err)
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
