package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/multihost"
	"repro/internal/serve"
	"repro/internal/trace"
)

// call runs the command and returns its exit status, stdout and stderr.
func call(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// short is a run that takes a few milliseconds.
var short = []string{"-algo", "PPO2", "-env", "Hopper", "-steps", "200"}

// TestExitStatus pins the exit status of each way a run can end: usage
// errors exit 2 with nothing on stdout, failures 1 and interruption 130.
func TestExitStatus(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
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
		{"bad label", context.Background(), []string{"-label", "algo"}, 2},
		{"unknown framework", context.Background(), []string{"-framework", "nope"}, 2},
		{"unknown format", context.Background(), []string{"-format", "v9"}, 2},
		{"distributed without actors", context.Background(), []string{"-distributed", "hosts=3", "-out", t.TempDir()}, 2},
		{"distributed with a bad count", context.Background(), []string{"-distributed", "actors=x", "-out", t.TempDir()}, 2},
		{"distributed without out", context.Background(), []string{"-distributed", "actors=3"}, 2},
		{"unknown algorithm", context.Background(), []string{"-algo", "nope"}, 1},
		{"out is a file", context.Background(), append([]string{"-out", file}, short...), 1},
		{"interrupted", cancelled, short, 130},
		{"interrupted, distributed", cancelled, append([]string{"-distributed", "actors=1", "-out", t.TempDir()}, short...), 130},
		{"interrupted, validate", cancelled, append([]string{"-validate"}, short...), 130},
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

// TestWritesAndStreamsOneTrace checks that -out writes the trace with its
// labels and host, that -serve streams the same bytes into a live store,
// and that the breakdown is printed as a table or, with -csv, as CSV.
func TestWritesAndStreamsOneTrace(t *testing.T) {
	store := t.TempDir()
	srv := serve.NewServer(serve.Config{StoreDir: store})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	out := filepath.Join(t.TempDir(), "trace")
	args := append([]string{"-out", out, "-format", "v2", "-label", "algo=ppo", "-host", "h1", "-serve", hs.URL, "-trace-id", "live"}, short...)
	code, stdout, stderr := call(context.Background(), args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"RL-Scope time breakdown", "Language transitions", "total training time: "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	tr, err := trace.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Host != "h1" || tr.Meta.Labels["algo"] != "ppo" || len(tr.Events) == 0 {
		t.Errorf("written trace: host %q, labels %v, %d events", tr.Meta.Host, tr.Meta.Labels, len(tr.Events))
	}
	written, err := trace.DirDigest(out)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := trace.DirDigest(filepath.Join(store, "live"))
	if err != nil {
		t.Fatal(err)
	}
	if written != streamed {
		t.Errorf("the streamed trace's digest %s differs from the written one's %s", streamed, written)
	}

	code, csv, _ := call(context.Background(), append([]string{"-csv", "-uninstrumented"}, short...)...)
	if code != 0 || strings.Contains(csv, "RL-Scope") || strings.Count(csv, "\n") < 2 {
		t.Errorf("exit %d; -csv is not a CSV table:\n%s", code, csv)
	}
	code, validated, _ := call(context.Background(), append([]string{"-validate"}, short...)...)
	if code != 0 || !strings.Contains(validated, "bias=") {
		t.Errorf("exit %d; -validate printed %q", code, validated)
	}
}

// TestDistributedWritesItsManifest checks that -distributed writes one
// trace directory per host and a manifest that lists each with its event
// count.
func TestDistributedWritesItsManifest(t *testing.T) {
	out := t.TempDir()
	code, _, stderr := call(context.Background(), "-distributed", "actors=3", "-algo", "DDPG", "-env", "Hopper",
		"-framework", "eager-pytorch", "-steps", "200", "-seed", "42", "-label", "run=a", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	path := filepath.Join(out, "manifest.json")
	dirs, err := multihost.ManifestDirs(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man multihost.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for i, dir := range dirs {
		tr, err := trace.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Meta.Labels["run"] != "a" || len(tr.Events) == 0 || len(tr.Events) != man.Hosts[i].Events {
			t.Errorf("%s: labels %v, %d events, the manifest's %d", dir, tr.Meta.Labels, len(tr.Events), man.Hosts[i].Events)
		}
		hosts = append(hosts, filepath.Base(dir))
	}
	if got := strings.Join(hosts, ","); got != "learner,actor00,actor01,actor02" {
		t.Errorf("manifest hosts %s", got)
	}
}
