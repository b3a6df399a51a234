// Package hypothesis turns the paper's findings — and this repo's own
// scaling claims — into declaratively specified, continuously re-verified
// experiments. A committed grid (hypotheses.json) describes each claim as a
// set of conditions over named experiment metrics; the evaluator runs the
// required experiment cells (one per ⟨experiment, steps, seed⟩, shared
// across hypotheses), classifies each claim, and emits a machine-readable
// verdict document CI can gate on.
//
// The rigor rules follow the BLIS experiment standards (SNIPPETS.md
// snippet 3). Every hypothesis is classified before evaluation:
//
//   - deterministic: verifies an exact property (an invariant, a
//     conservation law, byte-identity). One seed suffices — determinism is
//     the point — and the verdict is binary: confirmed or refuted. A
//     refuted deterministic hypothesis is ALWAYS a bug, never noise, so the
//     CI gate fails the build on it.
//
//   - statistical: compares metrics whose values vary by seed. At least
//     three seeds are required; the claim is confirmed only when every
//     condition holds with its full effect size in EVERY seed (directional
//     consistency — one contradicting seed means not confirmed). It is
//     refuted only when some condition's direction is contradicted in every
//     seed; anything in between is inconclusive.
package hypothesis

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Class is the hypothesis classification that fixes the rigor rules.
type Class string

const (
	// Deterministic hypotheses verify exact properties at a single seed.
	Deterministic Class = "deterministic"
	// Statistical hypotheses compare seed-varying metrics across ≥ 3
	// seeds with effect-size and directional-consistency requirements.
	Statistical Class = "statistical"
)

// Verdict is the outcome of evaluating one hypothesis.
type Verdict string

const (
	// Confirmed: every condition held with full effect in every seed.
	Confirmed Verdict = "confirmed"
	// Inconclusive: neither confirmed nor consistently contradicted —
	// mixed directions across seeds, or effects below the significance
	// threshold. Statistical hypotheses only.
	Inconclusive Verdict = "inconclusive"
	// Refuted: the claim failed (deterministic) or its direction was
	// contradicted in every seed (statistical).
	Refuted Verdict = "refuted"
)

// Kind is a condition's predicate shape over one metric value.
type Kind string

const (
	// KindMinRatio requires value ≥ Bound. The weak zone (direction
	// right, effect short of Bound) reaches down to Contra, which
	// defaults to 1 — the no-effect point for a ratio.
	KindMinRatio Kind = "min_ratio"
	// KindBand requires Lo ≤ value ≤ Hi. Below-band values down to
	// Contra (default min(1, Lo)) and above-band values are weak; only
	// values at or below Contra contradict the claimed direction.
	KindBand Kind = "band"
	// KindEquiv requires |value − 1| ≤ Tol (an equivalence test over a
	// ratio). Deviations beyond Contra (default 2·Tol) contradict.
	KindEquiv Kind = "equiv"
	// KindMaxValue requires value ≤ Bound; larger values contradict
	// unless Contra sets a higher cutoff (then (Bound, Contra] is weak).
	KindMaxValue Kind = "max_value"
	// KindMinValue requires value ≥ Bound; smaller values contradict
	// unless Contra sets a lower cutoff (then [Contra, Bound) is weak).
	KindMinValue Kind = "min_value"
	// KindEq requires |value − Want| ≤ Eps (Eps defaults to 0). Exact
	// checks for deterministic hypotheses; failure contradicts.
	KindEq Kind = "eq"
)

// Condition is one predicate of a hypothesis. Its value is either the named
// Metric, or the ratio Num/Den of two named metrics from the hypothesis's
// experiment bundle.
type Condition struct {
	// Name labels the condition in the verdict document.
	Name string `json:"name"`
	// Kind selects the predicate shape.
	Kind Kind `json:"kind"`
	// Metric names the bundle metric to test. Mutually exclusive with
	// Num/Den.
	Metric string `json:"metric,omitempty"`
	// Num and Den name two bundle metrics; the tested value is their
	// ratio.
	Num string `json:"num,omitempty"`
	Den string `json:"den,omitempty"`
	// Bound is the threshold for min_ratio / min_value / max_value.
	Bound float64 `json:"bound,omitempty"`
	// Lo and Hi delimit a band condition.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Tol is the equivalence tolerance.
	Tol float64 `json:"tol,omitempty"`
	// Want and Eps parameterize an eq condition.
	Want float64 `json:"want,omitempty"`
	Eps  float64 `json:"eps,omitempty"`
	// Contra, when set, overrides the kind's default
	// direction-contradicted cutoff (see the Kind docs).
	Contra float64 `json:"contra,omitempty"`
}

// Hypothesis is one claim of the grid.
type Hypothesis struct {
	// ID is the stable identifier (e.g. "F.1", "R.sweep-scaling").
	ID string `json:"id"`
	// Title states the claim in one line.
	Title string `json:"title"`
	// Class fixes the rigor rules (deterministic | statistical).
	Class Class `json:"class"`
	// Experiment names the metric bundle the conditions draw from (an
	// experiments.Metrics id).
	Experiment string `json:"experiment"`
	// Steps is the per-workload environment-step budget for the
	// experiment cells; 0 selects the experiment's default.
	Steps int `json:"steps,omitempty"`
	// Seeds lists the cell seeds. Deterministic hypotheses use exactly
	// one; statistical hypotheses at least three.
	Seeds []int64 `json:"seeds"`
	// Timing marks hypotheses whose metrics measure host wall-clock time
	// rather than the simulated clock. Their values — though not their
	// expected verdicts — vary run to run, so -timing=false excludes
	// them when byte-deterministic output is required.
	Timing bool `json:"timing,omitempty"`
	// Conditions must all hold for the hypothesis to be confirmed.
	Conditions []Condition `json:"conditions"`
}

// Grid is the committed experiment grid.
type Grid struct {
	// Note is free-form provenance for the grid file.
	Note string `json:"note,omitempty"`
	// Hypotheses lists every claim.
	Hypotheses []Hypothesis `json:"hypotheses"`
}

// LoadGrid reads and validates a grid file.
func LoadGrid(path string) (*Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hypothesis: %w", err)
	}
	return ParseGrid(data)
}

// ParseGrid decodes and validates a grid document.
func ParseGrid(data []byte) (*Grid, error) {
	var g Grid
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("hypothesis: parsing grid: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// Validate checks the grid's structural and rigor invariants.
func (g *Grid) Validate() error {
	seen := map[string]bool{}
	for i := range g.Hypotheses {
		h := &g.Hypotheses[i]
		if h.ID == "" {
			return fmt.Errorf("hypothesis: grid entry %d has no id", i)
		}
		if seen[h.ID] {
			return fmt.Errorf("hypothesis: duplicate id %q", h.ID)
		}
		seen[h.ID] = true
		if err := h.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (h *Hypothesis) validate() error {
	switch h.Class {
	case Deterministic:
		if len(h.Seeds) != 1 {
			return fmt.Errorf("hypothesis: %s is deterministic and must use exactly 1 seed, has %d", h.ID, len(h.Seeds))
		}
	case Statistical:
		if len(h.Seeds) < 3 {
			return fmt.Errorf("hypothesis: %s is statistical and needs ≥ 3 seeds, has %d", h.ID, len(h.Seeds))
		}
	default:
		return fmt.Errorf("hypothesis: %s has unknown class %q", h.ID, h.Class)
	}
	if h.Experiment == "" {
		return fmt.Errorf("hypothesis: %s names no experiment", h.ID)
	}
	if len(h.Conditions) == 0 {
		return fmt.Errorf("hypothesis: %s has no conditions", h.ID)
	}
	for j := range h.Conditions {
		c := &h.Conditions[j]
		if c.Name == "" {
			return fmt.Errorf("hypothesis: %s condition %d has no name", h.ID, j)
		}
		hasMetric, hasRatio := c.Metric != "", c.Num != "" || c.Den != ""
		if hasMetric == hasRatio || (hasRatio && (c.Num == "" || c.Den == "")) {
			return fmt.Errorf("hypothesis: %s/%s must set either metric or num+den", h.ID, c.Name)
		}
		switch c.Kind {
		case KindMinRatio, KindMinValue, KindMaxValue:
			// Bound may legitimately be 0 only for max_value.
			if c.Bound == 0 && c.Kind != KindMaxValue {
				return fmt.Errorf("hypothesis: %s/%s needs a bound", h.ID, c.Name)
			}
		case KindBand:
			if c.Lo == 0 || c.Hi <= c.Lo {
				return fmt.Errorf("hypothesis: %s/%s needs 0 < lo < hi", h.ID, c.Name)
			}
		case KindEquiv:
			if c.Tol <= 0 {
				return fmt.Errorf("hypothesis: %s/%s needs tol > 0", h.ID, c.Name)
			}
		case KindEq:
			// Want may be any value, including 0.
		default:
			return fmt.Errorf("hypothesis: %s/%s has unknown kind %q", h.ID, c.Name, c.Kind)
		}
	}
	return nil
}

// Find returns the hypothesis with the given id, or nil.
func (g *Grid) Find(id string) *Hypothesis {
	for i := range g.Hypotheses {
		if g.Hypotheses[i].ID == id {
			return &g.Hypotheses[i]
		}
	}
	return nil
}

// Experiments returns the sorted set of experiment ids the grid references.
func (g *Grid) Experiments() []string {
	set := map[string]bool{}
	for i := range g.Hypotheses {
		set[g.Hypotheses[i].Experiment] = true
	}
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
