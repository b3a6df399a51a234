package main

import (
	"bytes"
	"context"
	"encoding/json"
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

// writeFleet profiles three short labeled runs into fleet-a, fleet-b and
// fleet-c under one directory, as rlscope-prof -label k=v -out does, and
// returns their paths.
func writeFleet(t *testing.T) []string {
	t.Helper()
	root := t.TempDir()
	var dirs []string
	for i, algo := range []string{"ppo", "dqn", "ppo"} {
		stats, err := workloads.Run(workloads.Spec{Algo: "PPO2", Env: "Hopper", Model: backend.Graph, TotalSteps: 100 + 50*i, Seed: 1}, trace.Full())
		if err != nil {
			t.Fatal(err)
		}
		stats.Trace.Meta.Labels = map[string]string{"algo": algo}
		dir := filepath.Join(root, "fleet-"+string(rune('a'+i)))
		w, err := trace.NewWriter(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Append(stats.Trace.Events...)
		if err := w.Close(stats.Trace.Meta); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	return dirs
}

// TestExitStatus pins the exit status of each way a run can end: usage
// errors exit 2 with nothing on stdout, failures 1 and interruption 130.
func TestExitStatus(t *testing.T) {
	dirs := writeFleet(t)
	queryFile := filepath.Join(t.TempDir(), "q.json")
	if err := os.WriteFile(queryFile, []byte(`{"group_by":["label.algo"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	q := `{"group_by":["id"]}`
	for _, tc := range []struct {
		name string
		ctx  context.Context
		args []string
		want int
	}{
		{"help", context.Background(), []string{"-h"}, 0},
		{"unknown flag", context.Background(), []string{"-nope"}, 2},
		{"bad filter", context.Background(), []string{"-filter", "algo", dirs[0]}, 2},
		{"no traces", context.Background(), nil, 2},
		{"query beside query-file", context.Background(), []string{"-query", q, "-query-file", queryFile, dirs[0]}, 2},
		{"query beside filter", context.Background(), []string{"-query", q, "-filter", "id=*", dirs[0]}, 2},
		{"query-file beside group-by", context.Background(), []string{"-query-file", queryFile, "-group-by", "id", dirs[0]}, 2},
		{"query beside metrics", context.Background(), []string{"-query", q, "-metrics", "total_ns", dirs[0]}, 2},
		{"unknown query field", context.Background(), []string{"-query", `{"nope":1}`, dirs[0]}, 1},
		{"unknown metric", context.Background(), []string{"-metrics", "nope", dirs[0]}, 1},
		{"missing query file", context.Background(), []string{"-query-file", filepath.Join(t.TempDir(), "q.json"), dirs[0]}, 1},
		{"missing trace", context.Background(), []string{filepath.Join(t.TempDir(), "missing")}, 1},
		{"report store is a file", context.Background(), []string{"-store-reports", queryFile, dirs[0]}, 1},
		{"interrupted", cancelled, dirs, 130},
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

// TestQueryModesAgree checks that the convenience flags, -query over a warm
// report store, and -query-file over -trace NAME=DIR flags are one query
// with one document, which groups the fleet by label.
func TestQueryModesAgree(t *testing.T) {
	dirs := writeFleet(t)
	reports := t.TempDir()
	const q = `{"filter":{"id":"fleet-*"},"group_by":["label.algo"],"metrics":["total_ns","gpu_frac"]}`
	queryFile := filepath.Join(t.TempDir(), "q.json")
	if err := os.WriteFile(queryFile, []byte(q), 0o644); err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, args := range [][]string{
		append([]string{"-filter", "id=fleet-*", "-group-by", "label.algo", "-metrics", "total_ns, gpu_frac", "-store-reports", reports}, dirs...),
		append([]string{"-query", q, "-store-reports", reports, "-workers", "1"}, dirs...),
		{"-query-file", queryFile, "-trace", "fleet-a=" + dirs[0], "-trace", "fleet-b=" + dirs[1], "-trace", "fleet-c=" + dirs[2]},
	} {
		code, stdout, stderr := call(context.Background(), args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		docs = append(docs, stdout)
	}
	if docs[0] != docs[1] || docs[0] != docs[2] {
		t.Errorf("the three query modes answer differently:\n%s\n%s\n%s", docs[0], docs[1], docs[2])
	}
	var doc struct {
		Groups []struct {
			Key      map[string]string `json:"key"`
			TraceIDs []string          `json:"trace_ids"`
		} `json:"groups"`
	}
	if err := json.Unmarshal([]byte(docs[0]), &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range doc.Groups {
		got = append(got, g.Key["label.algo"]+"="+strings.Join(g.TraceIDs, "+"))
	}
	if want := "dqn=fleet-b ppo=fleet-a+fleet-c"; strings.Join(got, " ") != want {
		t.Errorf("groups %v, want %s", got, want)
	}
}
