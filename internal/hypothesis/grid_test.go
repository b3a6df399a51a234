package hypothesis_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
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
	for _, id := range []string{"R.scaling-illusion", "D.stream-bounded", "D.seed-repro"} {
		if g.Find(id) == nil {
			t.Errorf("grid is missing repo claim %s", id)
		}
	}
	known := map[string]bool{}
	for _, e := range experiments.MetricExperiments {
		known[e] = true
	}
	for i := range g.Hypotheses {
		if e := g.Hypotheses[i].Experiment; !known[e] {
			t.Errorf("%s references experiment %q the metric source does not implement", g.Hypotheses[i].ID, e)
		}
	}
	hasDet, hasStat := false, false
	for i := range g.Hypotheses {
		switch g.Hypotheses[i].Class {
		case hypothesis.Deterministic:
			hasDet = true
		case hypothesis.Statistical:
			hasStat = true
		}
	}
	if !hasDet || !hasStat {
		t.Errorf("grid should exercise every class: deterministic=%v statistical=%v", hasDet, hasStat)
	}
}

// TestParseGridRefusesUnknownKeys: a key the grid does not define — a
// retired one such as "timing", or a misspelt "seed" — is refused by name
// rather than silently dropped, and so is anything after the one document.
func TestParseGridRefusesUnknownKeys(t *testing.T) {
	data, err := os.ReadFile(gridPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hypothesis.ParseGrid(data); err != nil {
		t.Fatalf("committed grid refused: %v", err)
	}
	first := []byte(`"seeds": [`)
	if !bytes.Contains(data, first) {
		t.Fatal("committed grid has no seeds key to edit")
	}
	for key, edited := range map[string][]byte{
		"timing": bytes.Replace(data, first, []byte(`"timing": true, "seeds": [`), 1),
		"seed":   bytes.Replace(data, first, []byte(`"seed": [`), 1),
	} {
		_, err := hypothesis.ParseGrid(edited)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("grid with key %q: err = %v, want one naming the key", key, err)
		}
	}
	if _, err := hypothesis.ParseGrid(append(bytes.Clone(data), "{}"...)); err == nil {
		t.Error("grid followed by a second JSON value accepted")
	}
}

// TestCommittedGridConditionShapes checks, without running any experiments,
// that every contra cutoff a condition sets lies on the far side of its
// threshold — below the floor of a min_ratio, min_value or band (its lo),
// above the cap of a max_value — so the weak zone between them is not
// empty. Whether the metrics a condition names exist is not
// checked here: cmd/rlscope-hyp's TestVerdictsGolden evaluates the grid,
// where an unknown metric is a refuted or inconclusive verdict.
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

// TestBrokenHypothesisIsRefutedAndGated is the gate's own fixture: a
// deliberately broken deterministic hypothesis must come back refuted, and
// the gate must fail the document that contains it.
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

// TestDocumentJSONDeterministic: the verdict document committed as
// verdicts.json must be byte-reproducible — same grid, same source, same
// bytes.
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
		doc, err := hypothesis.NewEvaluator(source).Evaluate(g, hypothesis.Options{})
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
