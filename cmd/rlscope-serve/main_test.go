package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
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

// writeTrace profiles a short run into a trace directory, as rlscope-prof
// -out does.
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
// errors exit 2 and failures 1, with nothing on stdout. A done context is
// the service's shutdown, not an interruption: it boots, drains and exits
// 0.
func TestExitStatus(t *testing.T) {
	dir := writeTrace(t)
	notJSON := filepath.Join(t.TempDir(), "cal.json")
	if err := os.WriteFile(notJSON, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	local := []string{"-listen", "127.0.0.1:0", "-trace", "smoke=" + dir}
	for _, tc := range []struct {
		name string
		ctx  context.Context
		args []string
		want int
	}{
		{"help", context.Background(), []string{"-h"}, 0},
		{"unknown flag", context.Background(), []string{"-nope"}, 2},
		{"no traces and no store", context.Background(), []string{"-listen", "127.0.0.1:0"}, 2},
		{"missing trace", context.Background(), []string{"-listen", "127.0.0.1:0", filepath.Join(t.TempDir(), "missing")}, 1},
		{"missing calibration", context.Background(), append([]string{"-calibration", filepath.Join(t.TempDir(), "cal.json")}, local...), 1},
		{"calibration not JSON", context.Background(), append([]string{"-calibration", notJSON}, local...), 1},
		{"report store is a file", context.Background(), append([]string{"-store-reports", notJSON}, local...), 1},
		{"listen fails", context.Background(), []string{"-listen", "127.0.0.1:-1", dir}, 1},
		{"debug listen fails", context.Background(), append([]string{"-debug-addr", "127.0.0.1:-1"}, local...), 1},
		{"shut down", cancelled, append([]string{"-debug-addr", "127.0.0.1:0", "-store", t.TempDir(), "-store-reports", t.TempDir()}, local...), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := call(tc.ctx, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.want, stderr)
			}
			if stdout != "" {
				t.Errorf("exit %d with stdout %q", code, stdout)
			}
			if tc.ctx == cancelled && !strings.HasSuffix(stderr, "rlscope-serve: bye\n") {
				t.Errorf("a shut-down run did not drain:\n%s", stderr)
			}
		})
	}
}

// TestDebugHandlerServesOnlyPprof checks the -debug-addr mux: pprof's pages
// answer, and nothing outside /debug/pprof/ does.
func TestDebugHandlerServesOnlyPprof(t *testing.T) {
	hs := httptest.NewServer(debugHandler())
	defer hs.Close()
	for path, want := range map[string]int{"/debug/pprof/cmdline": 200, "/debug/pprof/": 200, "/v1/traces": 404} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}
