package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	rlscope "repro"
	"repro/internal/backend"
	"repro/internal/multihost"
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

// writeDistributed simulates a 3-actor/1-learner run and writes one trace
// directory per host plus manifest.json, as rlscope-prof -distributed
// actors=3 does. It returns the manifest's path.
func writeDistributed(t *testing.T) string {
	t.Helper()
	spec := workloads.DistributedSpec{Actors: 3, Algo: "DDPG", Env: "Hopper", Model: backend.EagerPyTorch, TotalSteps: 200, Seed: 42}
	runs, err := workloads.RunDistributed(spec, trace.Full())
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	man := multihost.Manifest{Workload: spec.Name(), Actors: spec.Actors, Steps: spec.TotalSteps, Seed: spec.Seed}
	for _, r := range runs {
		w, err := trace.NewWriter(filepath.Join(out, r.Host), 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Append(r.Trace.Events...)
		if err := w.Close(r.Trace.Meta); err != nil {
			t.Fatal(err)
		}
		man.Hosts = append(man.Hosts, multihost.ManifestHost{Host: r.Host, Dir: r.Host, Events: len(r.Trace.Events), SkewNS: int64(r.Skew)})
	}
	if err := multihost.WriteManifest(out, &man); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(out, "manifest.json")
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
// interrupted merge reads no host past the signal and writes nothing.
func TestExitStatus(t *testing.T) {
	manifest := writeDistributed(t)
	hostDir := filepath.Join(filepath.Dir(manifest), "learner")
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
		{"no out", context.Background(), []string{"-manifest", manifest}, 2},
		{"manifest beside dirs", context.Background(), []string{"-out", t.TempDir(), "-manifest", manifest, hostDir}, 2},
		{"one host", context.Background(), []string{"-out", t.TempDir(), hostDir}, 1},
		{"missing manifest", context.Background(), []string{"-out", t.TempDir(), "-manifest", filepath.Join(t.TempDir(), "manifest.json")}, 1},
		{"interrupted", cancelled, []string{"-out", filepath.Join(t.TempDir(), "merged"), "-manifest", manifest}, 130},
		{"interrupted after a host", &cancelAfter{Context: context.Background(), checks: 1}, []string{"-out", filepath.Join(t.TempDir(), "merged"), "-manifest", manifest}, 130},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := call(tc.ctx, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.want, stderr)
			}
			if code == 130 {
				if _, err := os.Stat(tc.args[1]); !os.IsNotExist(err) {
					t.Errorf("interrupted merge wrote %s: %v", tc.args[1], err)
				}
			}
			if stdout != "" {
				t.Errorf("exit %d with stdout %q", code, stdout)
			}
		})
	}
}

// TestMergedRunAnalyzes merges a distributed run through its manifest,
// checks that the merged analysis document keeps nonzero network wait, and
// that merging the host directories again, in another order, reproduces
// the directory's digest.
func TestMergedRunAnalyzes(t *testing.T) {
	manifest := writeDistributed(t)
	merged := filepath.Join(t.TempDir(), "merged")
	if code, _, stderr := call(context.Background(), "-out", merged, "-manifest", manifest); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}

	// The document rlscope-analyze -json prints for the merged directory.
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromDir(merged))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Processes []struct {
			Breakdown struct {
				Ops []struct {
					NetworkNS *int64 `json:"network_ns"`
				} `json:"ops"`
			} `json:"breakdown"`
		} `json:"processes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var network int64
	for _, p := range doc.Processes {
		for _, op := range p.Breakdown.Ops {
			if op.NetworkNS != nil {
				network += *op.NetworkNS
			}
		}
	}
	if network <= 0 {
		t.Errorf("the merged analysis has network_ns %d, want > 0", network)
	}

	base := filepath.Dir(manifest)
	again := filepath.Join(t.TempDir(), "merged")
	code, _, stderr := call(context.Background(), "-out", again, "-q",
		filepath.Join(base, "actor02"), filepath.Join(base, "learner"), filepath.Join(base, "actor00"), filepath.Join(base, "actor01"))
	if code != 0 {
		t.Fatalf("permuted merge: exit %d: %s", code, stderr)
	}
	a, err := trace.DirDigest(merged)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.DirDigest(again)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("a permuted merge has digest %s, the manifest's %s", b, a)
	}
}
