package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hypothesis"
)

// TestVerdictsGolden is the one evaluation of the committed grid: every
// hypothesis it names — the paper's findings F.1–F.12 and the repo's own
// claims — must come back confirmed, the gate must pass, and the document,
// encoded as the command writes it, must equal the committed verdicts.json
// byte for byte. A metric that moves therefore shows up as a diff of that
// file, not only as a verdict flip. Every metric bundle is a pure function of
// its grid cell, so the document is byte-deterministic.
// Absolute numbers differ from the paper's (the substrate is a simulator);
// the conditions hold the shape: who wins, by roughly what factor, and
// where crossovers fall.
func TestVerdictsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the grid takes many minutes under -race; internal/experiments races its fan-out")
	}
	grid, err := hypothesis.LoadGrid("../../hypotheses.json")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := hypothesis.NewEvaluator(experiments.Metrics).Evaluate(grid, hypothesis.Options{})
	if err != nil {
		t.Fatalf("evaluating the grid: %v", err)
	}
	doc.Grid = "hypotheses.json" // as the command run from the repository root records it
	for i := range doc.Results {
		r := &doc.Results[i]
		t.Run(r.ID, func(t *testing.T) {
			if r.Verdict != hypothesis.Confirmed {
				evidence, _ := encode(r)
				t.Errorf("%s (%s) verdict = %s, want confirmed\n%s", r.ID, r.Title, r.Verdict, evidence)
			}
		})
	}
	if err := hypothesis.Gate(doc); err != nil {
		t.Error(err)
	}
	golden, err := os.ReadFile("../../verdicts.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := diffGolden(doc, golden); err != nil {
		t.Fatal(err)
	}
}

// TestListColumnsAlign checks that every -list row of the committed grid
// starts its class column at one offset, past the longest id.
func TestListColumnsAlign(t *testing.T) {
	grid, err := hypothesis.LoadGrid("../../hypotheses.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeList(&buf, grid.Hypotheses); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(rows) != len(grid.Hypotheses) {
		t.Fatalf("%d rows for %d hypotheses", len(rows), len(grid.Hypotheses))
	}
	offset := -1
	for i, h := range grid.Hypotheses {
		row := rows[i]
		rest := strings.TrimLeft(strings.TrimPrefix(row, h.ID), " ")
		if !strings.HasPrefix(row, h.ID+" ") || !strings.HasPrefix(rest, string(h.Class)+" ") {
			t.Fatalf("row %q is not %s, padding, then %s", row, h.ID, h.Class)
		}
		at := len(row) - len(rest)
		if offset < 0 {
			offset = at
		}
		if at != offset {
			t.Errorf("%s: class column at %d, the first row's at %d", h.ID, at, offset)
		}
	}
}

// TestGoldenDiffNamesDrift checks the comparison itself: a value that moves
// without flipping any verdict is still a mismatch, and the error names the
// hypothesis and condition it moved in.
func TestGoldenDiffNamesDrift(t *testing.T) {
	exact := func(name, metric string) hypothesis.Condition {
		return hypothesis.Condition{Name: name, Kind: hypothesis.KindEq, Metric: metric, Want: 1, Eps: 1}
	}
	grid := &hypothesis.Grid{Hypotheses: []hypothesis.Hypothesis{
		{
			ID: "D.steady", Title: "control: its value never moves",
			Class: hypothesis.Deterministic, Experiment: "stub", Seeds: []int64{42},
			Conditions: []hypothesis.Condition{exact("exact", "x")},
		},
		{
			ID: "D.drifts", Title: "its second condition's value moves",
			Class: hypothesis.Deterministic, Experiment: "stub", Seeds: []int64{42},
			Conditions: []hypothesis.Condition{exact("steady", "x"), exact("moved", "y")},
		},
	}}
	evaluate := func(y float64) *hypothesis.Document {
		t.Helper()
		doc, err := hypothesis.NewEvaluator(func(context.Context, string, int, int64) (map[string]float64, error) {
			return map[string]float64{"x": 1, "y": y}, nil
		}).Evaluate(grid, hypothesis.Options{})
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		return doc
	}
	golden, err := encode(evaluate(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := diffGolden(evaluate(1), golden); err != nil {
		t.Fatalf("an identical document mismatched its golden: %v", err)
	}
	drifted := evaluate(1.5)
	if err := hypothesis.Gate(drifted); err != nil {
		t.Fatalf("the drifted value should still confirm: %v", err)
	}
	err = diffGolden(drifted, golden)
	if err == nil {
		t.Fatal("a drifted condition value matched the golden")
	}
	if !strings.Contains(err.Error(), "D.drifts/moved") {
		t.Fatalf("mismatch error %q does not name D.drifts/moved", err)
	}
}

// diffGolden compares doc, encoded as the command writes it, with the golden
// bytes. On a mismatch it names the first hypothesis, and within it the
// first condition, whose result differs.
func diffGolden(doc *hypothesis.Document, golden []byte) error {
	got, err := encode(doc)
	if err != nil || bytes.Equal(got, golden) {
		return err
	}
	var want hypothesis.Document
	if err := json.Unmarshal(golden, &want); err != nil {
		return fmt.Errorf("the golden does not decode: %v", err)
	}
	where := "the note, summary or number of results"
	for i := range doc.Results {
		g := &doc.Results[i]
		if i >= len(want.Results) || g.ID != want.Results[i].ID {
			where = g.ID + ", which the golden does not have at this position"
			break
		}
		w := &want.Results[i]
		if reflect.DeepEqual(g, w) {
			continue
		}
		where = g.ID
		for c := range g.Conditions {
			if c >= len(w.Conditions) || !reflect.DeepEqual(g.Conditions[c], w.Conditions[c]) {
				where += "/" + g.Conditions[c].Name
				break
			}
		}
		break
	}
	return fmt.Errorf("verdict document differs from verdicts.json at %s; if the change is intended, regenerate it with: go run ./cmd/rlscope-hyp -out verdicts.json", where)
}

// call runs the command and returns its exit status, stdout and stderr.
func call(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// refutedGrid writes a grid whose one deterministic hypothesis, Figure 3's
// with a wrong value, is refuted.
func refutedGrid(t *testing.T) string {
	t.Helper()
	grid, err := hypothesis.LoadGrid("../../hypotheses.json")
	if err != nil {
		t.Fatal(err)
	}
	h := *grid.Find("D.fig3")
	h.Conditions = h.Conditions[:1:1]
	h.Conditions[0].Want = 9
	data, err := encode(hypothesis.Grid{Hypotheses: []hypothesis.Hypothesis{h}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "refuted.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitStatus pins the exit status of each way a run can end: usage
// errors exit 2 with nothing on stdout, failures (a tripped gate included)
// 1 and interruption 130.
func TestExitStatus(t *testing.T) {
	refuted := refutedGrid(t)
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
		{"missing grid", context.Background(), []string{"-grid", filepath.Join(t.TempDir(), "missing.json")}, 2},
		{"unknown metrics id", context.Background(), []string{"-metrics", "nope"}, 1},
		{"gate trips", context.Background(), []string{"-grid", refuted, "-out", filepath.Join(t.TempDir(), "v.json"), "-gate"}, 1},
		{"refuted without gate", context.Background(), []string{"-grid", refuted, "-out", filepath.Join(t.TempDir(), "v.json")}, 0},
		{"interrupted", cancelled, []string{"-grid", "../../hypotheses.json", "-ids", "D.fig3"}, 130},
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

// TestRunEmitsDocuments checks each output the command writes: the verdict
// document for a subset, to -out or stdout; the grid's -list; and one
// experiment's -metrics bundle.
func TestRunEmitsDocuments(t *testing.T) {
	out := filepath.Join(t.TempDir(), "verdicts.json")
	code, _, stderr := call(context.Background(), "-grid", "../../hypotheses.json", "-ids", "D.fig3", "-out", out, "-gate")
	if code != 0 || !strings.Contains(stderr, "rlscope-hyp: gate passed") {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	_, stdout, _ := call(context.Background(), "-grid", "../../hypotheses.json", "-ids", "D.fig3")
	if stdout != string(data) {
		t.Error("the document on stdout is not the one -out writes")
	}
	var doc hypothesis.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 || doc.Results[0].ID != "D.fig3" || doc.Results[0].Verdict != hypothesis.Confirmed {
		t.Errorf("-ids D.fig3 document: %+v", doc.Results)
	}

	grid, err := hypothesis.LoadGrid("../../hypotheses.json")
	if err != nil {
		t.Fatal(err)
	}
	_, list, _ := call(context.Background(), "-grid", "../../hypotheses.json", "-list")
	if n := strings.Count(list, "\n"); n != len(grid.Hypotheses) {
		t.Errorf("-list printed %d rows for %d hypotheses", n, len(grid.Hypotheses))
	}

	_, bundle, _ := call(context.Background(), "-metrics", "fig3")
	var metrics map[string]float64
	if err := json.Unmarshal([]byte(bundle), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics["cpu_mcts_ms"] != 1.25 {
		t.Errorf("-metrics fig3: cpu_mcts_ms = %v, want 1.25", metrics["cpu_mcts_ms"])
	}
}
