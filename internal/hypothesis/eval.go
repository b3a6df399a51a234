package hypothesis

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// Status classifies one condition at one seed.
type Status string

const (
	// StatusStrong: the condition holds with its full effect size.
	StatusStrong Status = "strong"
	// StatusWeak: the claimed direction holds, but short of the required
	// effect (or beyond the claimed band) — evidence, not confirmation.
	StatusWeak Status = "weak"
	// StatusContra: the claimed direction is contradicted.
	StatusContra Status = "contra"
)

// statusOf classifies a measured value against one condition.
func statusOf(c *Condition, v float64) Status {
	switch c.Kind {
	case KindMinRatio:
		contra := c.Contra
		if contra == 0 {
			contra = 1
		}
		switch {
		case v >= c.Bound:
			return StatusStrong
		case v > contra:
			return StatusWeak
		default:
			return StatusContra
		}
	case KindBand:
		contra := c.Contra
		if contra == 0 {
			contra = math.Min(1, c.Lo)
		}
		switch {
		case v >= c.Lo && v <= c.Hi:
			return StatusStrong
		case v > contra:
			return StatusWeak // direction right: below the band's floor or beyond its ceiling
		default:
			return StatusContra
		}
	case KindEquiv:
		contra := c.Contra
		if contra == 0 {
			contra = 2 * c.Tol
		}
		dev := math.Abs(v - 1)
		switch {
		case dev <= c.Tol:
			return StatusStrong
		case dev <= contra:
			return StatusWeak
		default:
			return StatusContra
		}
	case KindMaxValue:
		switch {
		case v <= c.Bound:
			return StatusStrong
		case c.Contra > c.Bound && v <= c.Contra:
			return StatusWeak
		default:
			return StatusContra
		}
	case KindMinValue:
		switch {
		case v >= c.Bound:
			return StatusStrong
		case c.Contra != 0 && c.Contra < c.Bound && v >= c.Contra:
			return StatusWeak
		default:
			return StatusContra
		}
	case KindEq:
		if math.Abs(v-c.Want) <= c.Eps {
			return StatusStrong
		}
		return StatusContra
	}
	return StatusContra
}

// verdictFor applies the BLIS classification rules to the per-seed condition
// statuses: statuses[s][c] is condition c's status at seed index s.
func verdictFor(class Class, statuses [][]Status) Verdict {
	allStrong := true
	for _, row := range statuses {
		for _, st := range row {
			if st != StatusStrong {
				allStrong = false
			}
		}
	}
	if allStrong {
		return Confirmed
	}
	if class == Deterministic {
		// Exact properties have no noise to absorb: not confirmed = bug.
		return Refuted
	}
	// Statistical: refuted only when some condition's direction is
	// contradicted in EVERY seed — consistent evidence against the claim.
	nCond := 0
	if len(statuses) > 0 {
		nCond = len(statuses[0])
	}
	for c := 0; c < nCond; c++ {
		contraEverywhere := true
		for s := range statuses {
			if statuses[s][c] != StatusContra {
				contraEverywhere = false
				break
			}
		}
		if contraEverywhere {
			return Refuted
		}
	}
	return Inconclusive
}

// SeedValue is one measured value with its seed, for transparency in the
// verdict document.
type SeedValue struct {
	Seed   int64   `json:"seed"`
	Value  float64 `json:"value"`
	Status Status  `json:"status"`
}

// ConditionResult reports one condition's evaluation across seeds.
type ConditionResult struct {
	Condition
	// PerSeed lists the measured value and classification at every seed.
	PerSeed []SeedValue `json:"per_seed"`
	// Mean, Min and Max summarize the per-seed values.
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// HypothesisResult is one hypothesis's verdict with full evidence.
type HypothesisResult struct {
	ID         string            `json:"id"`
	Title      string            `json:"title"`
	Class      Class             `json:"class"`
	Experiment string            `json:"experiment"`
	Steps      int               `json:"steps,omitempty"`
	Timing     bool              `json:"timing,omitempty"`
	Seeds      []int64           `json:"seeds"`
	Verdict    Verdict           `json:"verdict"`
	Conditions []ConditionResult `json:"conditions"`
	// Error records an experiment failure; the verdict is then refuted
	// for deterministic hypotheses and inconclusive for statistical ones.
	Error string `json:"error,omitempty"`
}

// Document is the machine-readable verdict document the CLI emits and CI
// archives.
type Document struct {
	Grid    string             `json:"grid,omitempty"`
	Note    string             `json:"note,omitempty"`
	Results []HypothesisResult `json:"results"`
	Summary map[Verdict]int    `json:"summary"`
}

// Source computes the named experiment's metric bundle at one grid cell.
// steps ≤ 0 selects the experiment's default scale. Implementations must be
// deterministic in (experiment, steps, seed) unless the metrics measure
// host time (Hypothesis.Timing).
type Source func(ctx context.Context, experiment string, steps int, seed int64) (map[string]float64, error)

// Evaluator runs grids against a metric source, memoizing experiment cells
// so hypotheses sharing a cell (e.g. every F.1–F.8 claim reads the same
// fig4 runs) pay for it once.
type Evaluator struct {
	source Source
	cache  map[cellKey]cell
}

type cellKey struct {
	experiment string
	steps      int
	seed       int64
}

type cell struct {
	metrics map[string]float64
	err     error
}

// NewEvaluator builds an evaluator over a metric source.
func NewEvaluator(source Source) *Evaluator {
	return &Evaluator{source: source, cache: map[cellKey]cell{}}
}

// Options scopes one Evaluate call.
type Options struct {
	// IDs, when non-empty, restricts evaluation to the listed hypotheses.
	IDs []string
	// Timing includes wall-clock-measuring hypotheses. Excluding them
	// (the default) keeps the document byte-deterministic.
	Timing bool
	// Steps, when positive, overrides every hypothesis's step budget —
	// an experimentation knob; verdicts are calibrated at grid scale.
	Steps int
	// Context cancels experiment runs between cells. nil means
	// context.Background().
	Context context.Context
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Evaluate runs every selected hypothesis and assembles the verdict
// document. Experiment failures are recorded per hypothesis, not returned:
// a failing experiment refutes a deterministic claim and leaves a
// statistical one inconclusive.
func (e *Evaluator) Evaluate(g *Grid, opts Options) (*Document, error) {
	want := map[string]bool{}
	for _, id := range opts.IDs {
		if g.Find(id) == nil {
			return nil, fmt.Errorf("hypothesis: unknown id %q", id)
		}
		want[id] = true
	}
	doc := &Document{Note: g.Note, Summary: map[Verdict]int{}}
	for i := range g.Hypotheses {
		h := &g.Hypotheses[i]
		if len(want) > 0 && !want[h.ID] {
			continue
		}
		if h.Timing && !opts.Timing {
			continue
		}
		if err := opts.ctx().Err(); err != nil {
			return nil, err
		}
		res := e.evaluateOne(opts.ctx(), h, opts.Steps)
		doc.Results = append(doc.Results, res)
		doc.Summary[res.Verdict]++
	}
	return doc, nil
}

func (e *Evaluator) evaluateOne(ctx context.Context, h *Hypothesis, stepsOverride int) HypothesisResult {
	steps := h.Steps
	if stepsOverride > 0 {
		steps = stepsOverride
	}
	out := HypothesisResult{
		ID: h.ID, Title: h.Title, Class: h.Class, Experiment: h.Experiment,
		Steps: steps, Timing: h.Timing, Seeds: h.Seeds,
		Conditions: make([]ConditionResult, len(h.Conditions)),
	}
	for c := range h.Conditions {
		out.Conditions[c].Condition = h.Conditions[c]
	}
	statuses := make([][]Status, 0, len(h.Seeds))
	for _, seed := range h.Seeds {
		metrics, err := e.cell(ctx, h.Experiment, steps, seed)
		if err != nil {
			out.Error = fmt.Sprintf("seed %d: %v", seed, err)
			break
		}
		row := make([]Status, len(h.Conditions))
		for c := range h.Conditions {
			cond := &h.Conditions[c]
			v, err := conditionValue(cond, metrics)
			if err != nil {
				out.Error = fmt.Sprintf("seed %d: %v", seed, err)
				break
			}
			st := statusOf(cond, v)
			row[c] = st
			out.Conditions[c].PerSeed = append(out.Conditions[c].PerSeed, SeedValue{
				Seed: seed, Value: v, Status: st,
			})
		}
		if out.Error != "" {
			break
		}
		statuses = append(statuses, row)
	}
	if out.Error != "" {
		if h.Class == Deterministic {
			out.Verdict = Refuted
		} else {
			out.Verdict = Inconclusive
		}
		return out
	}
	for c := range out.Conditions {
		summarize(&out.Conditions[c])
	}
	out.Verdict = verdictFor(h.Class, statuses)
	return out
}

func conditionValue(c *Condition, metrics map[string]float64) (float64, error) {
	lookup := func(name string) (float64, error) {
		v, ok := metrics[name]
		if !ok {
			return 0, fmt.Errorf("hypothesis: condition %s references unknown metric %q", c.Name, name)
		}
		return v, nil
	}
	if c.Metric != "" {
		return lookup(c.Metric)
	}
	num, err := lookup(c.Num)
	if err != nil {
		return 0, err
	}
	den, err := lookup(c.Den)
	if err != nil {
		return 0, err
	}
	if den == 0 {
		return 0, fmt.Errorf("hypothesis: condition %s divides by zero metric %q", c.Name, c.Den)
	}
	return num / den, nil
}

func summarize(cr *ConditionResult) {
	if len(cr.PerSeed) == 0 {
		return
	}
	cr.Min, cr.Max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, sv := range cr.PerSeed {
		sum += sv.Value
		cr.Min = math.Min(cr.Min, sv.Value)
		cr.Max = math.Max(cr.Max, sv.Value)
	}
	cr.Mean = sum / float64(len(cr.PerSeed))
}

func (e *Evaluator) cell(ctx context.Context, experiment string, steps int, seed int64) (map[string]float64, error) {
	key := cellKey{experiment, steps, seed}
	if c, ok := e.cache[key]; ok {
		return c.metrics, c.err
	}
	metrics, err := e.source(ctx, experiment, steps, seed)
	e.cache[key] = cell{metrics, err}
	return metrics, err
}

// Gate returns an error when the document contains a refuted deterministic
// hypothesis — the one outcome that is always a bug.
func Gate(doc *Document) error {
	var bad []string
	for i := range doc.Results {
		if r := &doc.Results[i]; r.Verdict == Refuted && r.Class == Deterministic {
			bad = append(bad, fmt.Sprintf("%s (%s)", r.ID, r.Class))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("hypothesis: refuted: %v", bad)
}
