package hypothesis

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fixedSource serves synthetic per-seed samples: values[seed][metric].
func fixedSource(values map[int64]map[string]float64) Source {
	return func(_ context.Context, _ string, _ int, seed int64) (map[string]float64, error) {
		m, ok := values[seed]
		if !ok {
			return nil, fmt.Errorf("no sample for seed %d", seed)
		}
		return m, nil
	}
}

// statHyp builds a 3-seed statistical hypothesis with one condition over
// metric "v".
func statHyp(c Condition) *Grid {
	c.Name = "c"
	if c.Metric == "" && c.Num == "" {
		c.Metric = "v"
	}
	return &Grid{Hypotheses: []Hypothesis{{
		ID: "H", Title: "t", Class: Statistical, Experiment: "x",
		Seeds: []int64{1, 2, 3}, Conditions: []Condition{c},
	}}}
}

// evalSamples runs a single-condition statistical hypothesis against one
// value per seed and returns the verdict.
func evalSamples(t *testing.T, c Condition, v1, v2, v3 float64) Verdict {
	t.Helper()
	g := statHyp(c)
	if err := g.Validate(); err != nil {
		t.Fatalf("grid: %v", err)
	}
	doc, err := NewEvaluator(fixedSource(map[int64]map[string]float64{
		1: {"v": v1}, 2: {"v": v2}, 3: {"v": v3},
	})).Evaluate(g, Options{})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return doc.Results[0].Verdict
}

// The BLIS effect-size boundaries: a dominance claim with a 20% required
// effect (bound 1.2) classifies correctly around the 20%, 10%, and
// direction (0%) thresholds.
func TestDominanceEffectSizeBoundaries(t *testing.T) {
	dom := Condition{Kind: KindMinRatio, Bound: 1.2}
	cases := []struct {
		name       string
		v1, v2, v3 float64
		want       Verdict
	}{
		{"all well above threshold", 1.5, 1.8, 2.1, Confirmed},
		{"exactly at 20% in every seed", 1.2, 1.2, 1.2, Confirmed},
		{"one seed just under 20%", 1.19, 1.5, 1.5, Inconclusive},
		{"one seed under 10% (weak)", 1.09, 1.5, 1.5, Inconclusive},
		{"consistent direction, all under 20%", 1.1, 1.15, 1.19, Inconclusive},
		{"one contradicting seed", 0.95, 1.5, 1.8, Inconclusive},
		{"contradicted in every seed", 0.8, 0.9, 0.95, Refuted},
		{"exactly no effect everywhere", 1.0, 1.0, 1.0, Refuted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := evalSamples(t, dom, tc.v1, tc.v2, tc.v3); got != tc.want {
				t.Errorf("samples (%v, %v, %v): verdict = %s, want %s",
					tc.v1, tc.v2, tc.v3, got, tc.want)
			}
		})
	}
}

// The 5% equivalence boundary: within tol in all seeds confirms, a seed
// beyond tol blocks confirmation, deviations beyond 2·tol in every seed
// refute.
func TestEquivalenceBoundaries(t *testing.T) {
	eq := Condition{Kind: KindEquiv, Tol: 0.05}
	cases := []struct {
		name       string
		v1, v2, v3 float64
		want       Verdict
	}{
		{"within 5% everywhere", 1.04, 0.96, 1.0, Confirmed},
		{"one seed at 6%", 1.06, 1.0, 1.0, Inconclusive},
		{"beyond 2x tol in every seed", 1.12, 1.2, 0.85, Refuted},
		{"beyond 2x tol in one seed only", 1.12, 1.01, 1.0, Inconclusive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := evalSamples(t, eq, tc.v1, tc.v2, tc.v3); got != tc.want {
				t.Errorf("samples (%v, %v, %v): verdict = %s, want %s",
					tc.v1, tc.v2, tc.v3, got, tc.want)
			}
		})
	}
	// The boundary itself is inclusive: with an exactly representable
	// tolerance (1/16), a deviation of exactly tol confirms.
	dyadic := Condition{Kind: KindEquiv, Tol: 0.0625}
	if got := evalSamples(t, dyadic, 1.0625, 0.9375, 1.0); got != Confirmed {
		t.Errorf("deviation exactly tol: %s, want confirmed", got)
	}
}

func TestBandAndCapBoundaries(t *testing.T) {
	band := Condition{Kind: KindBand, Lo: 1.9, Hi: 6.0}
	if got := evalSamples(t, band, 2.0, 3.0, 5.9); got != Confirmed {
		t.Errorf("in-band everywhere: %s, want confirmed", got)
	}
	// Above the band: the direction (slower) holds, the magnitude claim
	// does not — never confirmation, never refutation.
	if got := evalSamples(t, band, 7.0, 3.0, 3.0); got != Inconclusive {
		t.Errorf("one seed above band: %s, want inconclusive", got)
	}
	// Between the no-effect point and the band floor: weak.
	if got := evalSamples(t, band, 1.5, 2.0, 2.0); got != Inconclusive {
		t.Errorf("one seed below band: %s, want inconclusive", got)
	}
	if got := evalSamples(t, band, 0.9, 0.8, 1.0); got != Refuted {
		t.Errorf("direction contradicted everywhere: %s, want refuted", got)
	}

	cap := Condition{Kind: KindMaxValue, Bound: 0.141}
	if got := evalSamples(t, cap, 0.10, 0.141, 0.05); got != Confirmed {
		t.Errorf("under cap everywhere: %s, want confirmed", got)
	}
	if got := evalSamples(t, cap, 0.15, 0.10, 0.10); got != Inconclusive {
		t.Errorf("one seed over cap: %s, want inconclusive", got)
	}
	if got := evalSamples(t, cap, 0.15, 0.2, 0.3); got != Refuted {
		t.Errorf("over cap everywhere: %s, want refuted", got)
	}

	floor := Condition{Kind: KindMinValue, Bound: 0.9, Contra: 0.5}
	if got := evalSamples(t, floor, 0.95, 0.99, 0.9); got != Confirmed {
		t.Errorf("above floor everywhere: %s, want confirmed", got)
	}
	if got := evalSamples(t, floor, 0.7, 0.95, 0.95); got != Inconclusive {
		t.Errorf("one seed in weak zone: %s, want inconclusive", got)
	}
	if got := evalSamples(t, floor, 0.4, 0.3, 0.2); got != Refuted {
		t.Errorf("below contra everywhere: %s, want refuted", got)
	}
}

// Deterministic hypotheses are binary: confirmed or refuted, never
// inconclusive — one failure is a bug.
func TestDeterministicVerdictIsBinary(t *testing.T) {
	mk := func(want float64) *Grid {
		return &Grid{Hypotheses: []Hypothesis{{
			ID: "D", Title: "t", Class: Deterministic, Experiment: "x",
			Seeds: []int64{1},
			Conditions: []Condition{
				{Name: "c", Kind: KindEq, Metric: "v", Want: want},
			},
		}}}
	}
	src := fixedSource(map[int64]map[string]float64{1: {"v": 4}})
	doc, err := NewEvaluator(src).Evaluate(mk(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Results[0].Verdict != Confirmed {
		t.Errorf("exact match: %s, want confirmed", doc.Results[0].Verdict)
	}
	doc, err = NewEvaluator(src).Evaluate(mk(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Results[0].Verdict != Refuted {
		t.Errorf("mismatch: %s, want refuted", doc.Results[0].Verdict)
	}
	if err := Gate(doc); err == nil {
		t.Error("gate must fail on a refuted deterministic hypothesis")
	}
}

// A multi-condition hypothesis confirms only when every condition is strong
// in every seed, and refutes when any single condition is contradicted in
// all seeds.
func TestMultiConditionConjunction(t *testing.T) {
	g := &Grid{Hypotheses: []Hypothesis{{
		ID: "H", Title: "t", Class: Statistical, Experiment: "x",
		Seeds: []int64{1, 2, 3},
		Conditions: []Condition{
			{Name: "a", Kind: KindMinRatio, Metric: "a", Bound: 1.2},
			{Name: "b", Kind: KindMaxValue, Metric: "b", Bound: 0.1},
		},
	}}}
	eval := func(av, bv float64) Verdict {
		doc, err := NewEvaluator(fixedSource(map[int64]map[string]float64{
			1: {"a": av, "b": bv}, 2: {"a": av, "b": bv}, 3: {"a": av, "b": bv},
		})).Evaluate(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return doc.Results[0].Verdict
	}
	if got := eval(1.5, 0.05); got != Confirmed {
		t.Errorf("both strong: %s", got)
	}
	if got := eval(1.5, 0.2); got != Refuted {
		t.Errorf("one condition contradicted everywhere: %s, want refuted", got)
	}
	if got := eval(1.1, 0.05); got != Inconclusive {
		t.Errorf("one condition weak: %s, want inconclusive", got)
	}
}

// Ratio conditions divide two bundle metrics; unknown or zero-denominator
// references surface as per-hypothesis errors with the class-appropriate
// verdict, not as evaluation aborts.
func TestRatioAndErrorHandling(t *testing.T) {
	g := &Grid{Hypotheses: []Hypothesis{
		{
			ID: "ratio", Title: "t", Class: Statistical, Experiment: "x",
			Seeds: []int64{1, 2, 3},
			Conditions: []Condition{
				{Name: "r", Kind: KindMinRatio, Num: "hi", Den: "lo", Bound: 1.2},
			},
		},
		{
			ID: "missing-stat", Title: "t", Class: Statistical, Experiment: "x",
			Seeds: []int64{1, 2, 3},
			Conditions: []Condition{
				{Name: "m", Kind: KindMinRatio, Metric: "absent", Bound: 1.2},
			},
		},
		{
			ID: "missing-det", Title: "t", Class: Deterministic, Experiment: "x",
			Seeds: []int64{1},
			Conditions: []Condition{
				{Name: "m", Kind: KindEq, Metric: "absent", Want: 1},
			},
		},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	doc, err := NewEvaluator(fixedSource(map[int64]map[string]float64{
		1: {"hi": 3, "lo": 2}, 2: {"hi": 3, "lo": 2}, 3: {"hi": 3, "lo": 2},
	})).Evaluate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]HypothesisResult{}
	for _, r := range doc.Results {
		byID[r.ID] = r
	}
	if v := byID["ratio"].Verdict; v != Confirmed {
		t.Errorf("ratio 1.5 vs bound 1.2: %s", v)
	}
	if r := byID["missing-stat"]; r.Verdict != Inconclusive || r.Error == "" {
		t.Errorf("missing metric (statistical): verdict %s err %q", r.Verdict, r.Error)
	}
	if r := byID["missing-det"]; r.Verdict != Refuted || r.Error == "" {
		t.Errorf("missing metric (deterministic): verdict %s err %q", r.Verdict, r.Error)
	}
}

// Grid validation enforces the rigor rules before anything runs.
func TestGridValidation(t *testing.T) {
	base := func() Hypothesis {
		return Hypothesis{
			ID: "H", Title: "t", Class: Statistical, Experiment: "x",
			Seeds: []int64{1, 2, 3},
			Conditions: []Condition{
				{Name: "c", Kind: KindMinRatio, Metric: "v", Bound: 1.2},
			},
		}
	}
	bad := []func(*Hypothesis){
		func(h *Hypothesis) { h.Seeds = []int64{1, 2} },          // statistical needs ≥ 3
		func(h *Hypothesis) { h.Class = Deterministic },          // deterministic needs exactly 1
		func(h *Hypothesis) { h.Class = "bayesian" },             // unknown class
		func(h *Hypothesis) { h.Conditions = nil },               // no conditions
		func(h *Hypothesis) { h.Conditions[0].Kind = "ordinal" }, // unknown kind
		func(h *Hypothesis) { h.Conditions[0].Metric = "" },      // neither metric nor ratio
		func(h *Hypothesis) { // both metric and ratio
			h.Conditions[0].Num, h.Conditions[0].Den = "a", "b"
		},
		func(h *Hypothesis) { h.Experiment = "" },
	}
	for i, mutate := range bad {
		h := base()
		mutate(&h)
		g := &Grid{Hypotheses: []Hypothesis{h}}
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d: invalid grid accepted", i)
		}
	}
	g := &Grid{Hypotheses: []Hypothesis{base(), base()}}
	if err := g.Validate(); err == nil {
		t.Error("duplicate ids accepted")
	}
	if err := (&Grid{Hypotheses: []Hypothesis{base()}}).Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

// Property: across random samples, the verdict is always consistent with
// the per-seed statuses the document itself reports — confirmed iff all
// strong, refuted iff some condition is contra at every seed, inconclusive
// otherwise. Evaluating twice yields byte-identical documents.
func TestVerdictConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		nCond := 1 + rng.Intn(3)
		conds := make([]Condition, nCond)
		for c := range conds {
			switch rng.Intn(3) {
			case 0:
				conds[c] = Condition{Name: fmt.Sprintf("c%d", c), Kind: KindMinRatio,
					Metric: fmt.Sprintf("m%d", c), Bound: 1.2}
			case 1:
				conds[c] = Condition{Name: fmt.Sprintf("c%d", c), Kind: KindMaxValue,
					Metric: fmt.Sprintf("m%d", c), Bound: 0.5}
			default:
				conds[c] = Condition{Name: fmt.Sprintf("c%d", c), Kind: KindEquiv,
					Metric: fmt.Sprintf("m%d", c), Tol: 0.05}
			}
		}
		g := &Grid{Hypotheses: []Hypothesis{{
			ID: "H", Title: "t", Class: Statistical, Experiment: "x",
			Seeds: []int64{1, 2, 3}, Conditions: conds,
		}}}
		samples := map[int64]map[string]float64{}
		for _, seed := range []int64{1, 2, 3} {
			m := map[string]float64{}
			for c := 0; c < nCond; c++ {
				m[fmt.Sprintf("m%d", c)] = rng.Float64() * 2
			}
			samples[seed] = m
		}
		doc, err := NewEvaluator(fixedSource(samples)).Evaluate(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := doc.Results[0]

		allStrong := true
		refuted := false
		for c := range res.Conditions {
			contraEverywhere := true
			for _, sv := range res.Conditions[c].PerSeed {
				if sv.Status != StatusStrong {
					allStrong = false
				}
				if sv.Status != StatusContra {
					contraEverywhere = false
				}
			}
			if contraEverywhere {
				refuted = true
			}
		}
		want := Inconclusive
		if allStrong {
			want = Confirmed
		} else if refuted {
			want = Refuted
		}
		if res.Verdict != want {
			t.Fatalf("trial %d: verdict %s, statuses imply %s (%+v)", trial, res.Verdict, want, res.Conditions)
		}

		doc2, err := NewEvaluator(fixedSource(samples)).Evaluate(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := json.Marshal(doc)
		b2, _ := json.Marshal(doc2)
		if string(b1) != string(b2) {
			t.Fatal("re-evaluation changed the document bytes")
		}
	}
}

// Hypotheses sharing an ⟨experiment, steps, seed⟩ cell reuse one run.
func TestCellMemoization(t *testing.T) {
	calls := 0
	src := func(_ context.Context, _ string, _ int, _ int64) (map[string]float64, error) {
		calls++
		return map[string]float64{"v": 2}, nil
	}
	h := Hypothesis{
		Title: "t", Class: Statistical, Experiment: "x", Seeds: []int64{1, 2, 3},
		Conditions: []Condition{{Name: "c", Kind: KindMinRatio, Metric: "v", Bound: 1.2}},
	}
	a, b := h, h
	a.ID, b.ID = "A", "B"
	g := &Grid{Hypotheses: []Hypothesis{a, b}}
	doc, err := NewEvaluator(src).Evaluate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("source called %d times for 2 hypotheses × 3 shared seeds, want 3", calls)
	}
	if doc.Summary[Confirmed] != 2 {
		t.Errorf("summary: %+v", doc.Summary)
	}
}

// Timing hypotheses are excluded unless opted in; per-hypothesis summaries
// report mean/min/max across seeds.
func TestTimingFilterAndSummaries(t *testing.T) {
	g := &Grid{Hypotheses: []Hypothesis{
		{
			ID: "T", Title: "t", Class: Statistical, Experiment: "x",
			Seeds: []int64{1, 2, 3}, Timing: true,
			Conditions: []Condition{{Name: "c", Kind: KindMinRatio, Metric: "v", Bound: 1.2}},
		},
	}}
	src := fixedSource(map[int64]map[string]float64{
		1: {"v": 2}, 2: {"v": 4}, 3: {"v": 3},
	})
	doc, err := NewEvaluator(src).Evaluate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 0 {
		t.Fatalf("timing hypothesis evaluated without opt-in: %+v", doc.Results)
	}
	doc, err = NewEvaluator(src).Evaluate(g, Options{Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 {
		t.Fatalf("timing opt-in ignored")
	}
	c := doc.Results[0].Conditions[0]
	if c.Mean != 3 || c.Min != 2 || c.Max != 4 {
		t.Errorf("summary mean/min/max = %v/%v/%v, want 3/2/4", c.Mean, c.Min, c.Max)
	}
	if !reflect.DeepEqual(doc.Results[0].Seeds, []int64{1, 2, 3}) {
		t.Errorf("seeds not echoed: %+v", doc.Results[0].Seeds)
	}
}

// Unknown -ids selections are rejected up front.
func TestUnknownIDRejected(t *testing.T) {
	g := statHyp(Condition{Kind: KindMinRatio, Bound: 1.2})
	_, err := NewEvaluator(fixedSource(nil)).Evaluate(g, Options{IDs: []string{"nope"}})
	if err == nil {
		t.Fatal("unknown id accepted")
	}
}
