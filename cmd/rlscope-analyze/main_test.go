package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	rlscope "repro"
	"repro/internal/backend"
	"repro/internal/report"
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
// errors exit 2 with nothing on stdout, failures 1 and interruption 130.
func TestExitStatus(t *testing.T) {
	dir := writeTrace(t)
	missing := filepath.Join(t.TempDir(), "missing")
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
		{"no trace", context.Background(), nil, 2},
		{"max-resident beside phases", context.Background(), []string{"-trace", dir, "-max-resident", "4096", "-phases"}, 2},
		{"json beside csv", context.Background(), []string{"-trace", dir, "-json", "-csv"}, 2},
		{"csv beside phases", context.Background(), []string{"-trace", dir, "-csv", "-phases"}, 2},
		{"result-only without json", context.Background(), []string{"-trace", dir, "-result-only"}, 2},
		{"missing dir, streamed", context.Background(), []string{"-trace", missing}, 1},
		{"missing dir, materialized", context.Background(), []string{"-trace", missing, "-summary"}, 1},
		{"interrupted", cancelled, []string{"-trace", dir}, 130},
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

// TestJSONIsTheServedDocument checks that -json prints the Engine's
// report.Analysis document byte for byte, and that -result-only drops only
// its stats block.
func TestJSONIsTheServedDocument(t *testing.T) {
	dir := writeTrace(t)
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected).Encode(&want); err != nil {
		t.Fatal(err)
	}
	code, full, stderr := call(context.Background(), "-trace", dir, "-workers", "1", "-json")
	if code != 0 || full != want.String() {
		t.Fatalf("exit %d; -json is not the Engine's document (stderr %s)", code, stderr)
	}
	code, resultOnly, _ := call(context.Background(), "-trace", dir, "-workers", "1", "-json", "-result-only")
	if code != 0 {
		t.Fatalf("-result-only: exit %d", code)
	}
	var a, b map[string]json.RawMessage
	if err := json.Unmarshal([]byte(full), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(resultOnly), &b); err != nil {
		t.Fatal(err)
	}
	if _, ok := a["stats"]; !ok {
		t.Fatal("-json has no stats block")
	}
	delete(a, "stats")
	if len(a) != len(b) || !bytes.Equal(a["processes"], b["processes"]) || len(a["processes"]) < 3 {
		t.Errorf("-result-only keys %d, -json less stats %d, or their processes differ", len(b), len(a))
	}
}

// TestReportsAgreeAcrossModes checks that the breakdown table is the same
// streamed at any pool size or budget and materialized beside the report
// modes, and that each report mode prints its part.
func TestReportsAgreeAcrossModes(t *testing.T) {
	dir := writeTrace(t)
	_, table, _ := call(context.Background(), "-trace", dir, "-workers", "1")
	if !strings.HasPrefix(table, "== RL-Scope time breakdown: ") {
		t.Fatalf("table output starts %.60q", table)
	}
	code, small, _ := call(context.Background(), "-trace", dir, "-workers", "3", "-max-resident", "65536")
	if code != 0 || small != table {
		t.Errorf("exit %d; the table at -workers 3 -max-resident 65536 differs from -workers 1", code)
	}
	code, all, stderr := call(context.Background(), "-trace", dir, "-summary", "-timeline", "-tree", "-phases")
	if code != 0 {
		t.Fatalf("report modes: exit %d: %s", code, stderr)
	}
	if !strings.Contains(all, "\n"+table) || !strings.Contains(all, "Training phases") {
		t.Errorf("report modes do not print the table and the phase table:\n%s", all)
	}
	code, csv, _ := call(context.Background(), "-trace", dir, "-csv")
	if code != 0 || strings.Count(csv, "\n") < 2 || strings.Contains(csv, "RL-Scope") {
		t.Errorf("exit %d; -csv is not a CSV table:\n%s", code, csv)
	}
}
