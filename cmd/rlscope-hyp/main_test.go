package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
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
