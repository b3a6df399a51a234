// Package fleet implements cross-trace aggregation queries — the paper's
// Figure 9/10 questions ("how does GPU usage compare across DQN/A2C/PPO,
// across frameworks?") asked over a whole fleet of runs instead of one
// trace directory at a time.
//
// A Query selects traces by metadata (glob filters over trace id, workload,
// and the free-form labels rlscope-prof attaches), partitions the matches
// into groups by one or more of those dimensions, and merges each group's
// per-trace overlap Results *exactly*: the merge is the same commutative
// integer-sum shard merge the parallel engine is property-tested on
// (analysis.MergeResult), so a group's breakdown is byte-identical to what
// one Engine run over the concatenated member traces would report (for
// disjoint process ids — the multi-run case by construction).
//
// Execute is front-end-neutral — it takes the caller's result loader — and
// renders the byte-stable report.QueryDoc. rlscope-serve's POST /v1/query
// and the offline rlscope-query CLI reach it through one path,
// serve.Server.Query, which Selects first and caches the encoded document
// under ContentKey; test oracles call Execute directly with a fresh Engine
// run per trace, so server and CLI output can be compared with cmp.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Trace is one candidate trace as the query layer sees it: an id plus the
// run metadata carrying the workload name and labels.
type Trace struct {
	ID   string
	Meta trace.Meta
	// Digest is the content address of the trace (trace.DirDigest): the
	// query layer hashes it into ContentKey, so a document names the content
	// it was computed over.
	Digest string
}

// Query is the fleet query DSL, decoded verbatim from the POST /v1/query
// body or the rlscope-query flags:
//
//	{
//	  "filter":   {"workload": "ppo-*", "label.framework": "tf"},
//	  "group_by": ["label.algo"],
//	  "metrics":  ["total_ns", "gpu_ns", "gpu_frac"],
//	  "compare":  {"baseline": {"label.algo": "dqn"}}
//	}
//
// Filter maps dimensions to glob patterns (path.Match syntax: *, ?, [...]);
// a trace matches when every pattern matches its value for that dimension.
// GroupBy partitions matches by the listed dimensions (empty = one group of
// everything). Metrics selects the scalar metrics reported per group
// (empty = the default set). Compare names a baseline group by its exact
// group-key values; every other group then reports per-metric deltas and
// ratios against it.
type Query struct {
	Filter  map[string]string `json:"filter,omitempty"`
	GroupBy []string          `json:"group_by,omitempty"`
	Metrics []string          `json:"metrics,omitempty"`
	Compare *Compare          `json:"compare,omitempty"`
}

// Compare names the baseline group of a comparison: one value per GroupBy
// dimension.
type Compare struct {
	Baseline map[string]string `json:"baseline"`
}

// Dimensions usable in Filter and GroupBy: "id", "workload", "host", and
// "label.<key>" for any label key.
const (
	DimID       = "id"
	DimWorkload = "workload"
	DimHost     = "host"
	labelPrefix = "label."
)

// Metric names usable in Query.Metrics.
const (
	MetricTotalNS     = "total_ns"    // all attributed time
	MetricCPUNS       = "cpu_ns"      // CPU-busy time (CPU-only + CPU+GPU)
	MetricGPUNS       = "gpu_ns"      // GPU-busy time (GPU-only + CPU+GPU)
	MetricGPUFrac     = "gpu_frac"    // gpu_ns / total_ns, rounded to 1e-6
	MetricSpanNS      = "span_ns"     // merged event-span extent
	MetricTransitions = "transitions" // total language-transition count
	MetricNetNS       = "net_ns"      // Network-tier CPU time (cross-host wait)
)

// DefaultMetrics is the metric set an empty Query.Metrics selects.
var DefaultMetrics = []string{MetricTotalNS, MetricCPUNS, MetricGPUNS, MetricGPUFrac}

// metricOrder fixes the canonical ordering of the metric vocabulary.
var metricOrder = []string{MetricTotalNS, MetricCPUNS, MetricGPUNS, MetricGPUFrac, MetricSpanNS, MetricTransitions, MetricNetNS}

// QueryError reports an invalid query; servers map it to 400 bad_request.
type QueryError struct{ msg string }

func (e *QueryError) Error() string { return "fleet: " + e.msg }

func queryErrf(format string, args ...any) *QueryError {
	return &QueryError{msg: fmt.Sprintf(format, args...)}
}

// ValidDimension reports whether dim is a usable filter/group dimension.
func ValidDimension(dim string) bool {
	if dim == DimID || dim == DimWorkload || dim == DimHost {
		return true
	}
	return strings.HasPrefix(dim, labelPrefix) && len(dim) > len(labelPrefix)
}

// DimensionValue extracts a trace's value for one dimension. A label the
// trace does not carry is the empty string, which glob patterns other than
// "*" (and "") do not match.
func DimensionValue(t Trace, dim string) string {
	switch {
	case dim == DimID:
		return t.ID
	case dim == DimWorkload:
		return t.Meta.Workload
	case dim == DimHost:
		return t.Meta.Host
	case strings.HasPrefix(dim, labelPrefix):
		return t.Meta.Labels[dim[len(labelPrefix):]]
	}
	return ""
}

// Matcher is a compiled filter clause, shared by /v1/query and the
// GET /v1/traces?workload=&label.k= listing filters so the two agree on
// filter semantics exactly.
type Matcher struct {
	dims     []string // sorted
	patterns map[string]string
}

// NewMatcher validates and compiles a filter map. A nil or empty map
// matches everything.
func NewMatcher(filter map[string]string) (*Matcher, error) {
	m := &Matcher{patterns: make(map[string]string, len(filter))}
	for dim, pattern := range filter {
		if !ValidDimension(dim) {
			return nil, queryErrf("unknown filter dimension %q (want %q, %q, %q, or %q<key>)", dim, DimID, DimWorkload, DimHost, labelPrefix)
		}
		if _, err := path.Match(pattern, ""); err != nil {
			return nil, queryErrf("bad filter pattern %q for %q: %v", pattern, dim, err)
		}
		m.dims = append(m.dims, dim)
		m.patterns[dim] = pattern
	}
	sort.Strings(m.dims)
	return m, nil
}

// Match reports whether every filter pattern matches the trace.
func (m *Matcher) Match(t Trace) bool {
	for _, dim := range m.dims {
		// Patterns were validated at compile time; path.Match cannot fail.
		if ok, _ := path.Match(m.patterns[dim], DimensionValue(t, dim)); !ok {
			return false
		}
	}
	return true
}

// Plan is a compiled, validated query ready to Execute.
type Plan struct {
	query   Query
	matcher *Matcher
	groupBy []string
	metrics []string
}

// Compile validates a query: dimensions must be known, filter patterns
// well-formed, metrics from the vocabulary (deduplicated, order preserved),
// and a compare clause must name exactly the GroupBy dimensions.
func Compile(q Query) (*Plan, error) {
	matcher, err := NewMatcher(q.Filter)
	if err != nil {
		return nil, err
	}
	p := &Plan{query: q, matcher: matcher}
	seenDim := map[string]bool{}
	for _, dim := range q.GroupBy {
		if !ValidDimension(dim) {
			return nil, queryErrf("unknown group_by dimension %q", dim)
		}
		if !seenDim[dim] {
			seenDim[dim] = true
			p.groupBy = append(p.groupBy, dim)
		}
	}
	known := map[string]bool{}
	for _, m := range metricOrder {
		known[m] = true
	}
	seenMetric := map[string]bool{}
	for _, m := range q.Metrics {
		if !known[m] {
			return nil, queryErrf("unknown metric %q (want one of %s)", m, strings.Join(metricOrder, ", "))
		}
		if !seenMetric[m] {
			seenMetric[m] = true
			p.metrics = append(p.metrics, m)
		}
	}
	if len(p.metrics) == 0 {
		p.metrics = append(p.metrics, DefaultMetrics...)
	}
	if q.Compare != nil {
		if len(p.groupBy) == 0 {
			return nil, queryErrf("compare requires group_by")
		}
		if len(q.Compare.Baseline) != len(p.groupBy) {
			return nil, queryErrf("compare.baseline must name exactly the group_by dimensions %v", p.groupBy)
		}
		for _, dim := range p.groupBy {
			if _, ok := q.Compare.Baseline[dim]; !ok {
				return nil, queryErrf("compare.baseline is missing group_by dimension %q", dim)
			}
		}
	}
	return p, nil
}

// ResultLoader produces the per-process overlap results of one trace —
// from a content-addressed store, a fresh Engine run, whatever the front
// end has. Execute calls it once per matched trace, in ascending trace-id
// order.
type ResultLoader func(ctx context.Context, t Trace) (map[trace.ProcID]*overlap.Result, error)

// group accumulates one group during Execute.
type group struct {
	keyVals []string
	ids     []string
	procs   int
	merged  *overlap.Result
}

// Select is the first half of Execute: it rejects duplicate candidate ids
// and returns the traces the filter matches in ascending id order — the
// order Execute loads and lists them in. Candidates may arrive in any
// order and are left untouched; selecting an already-selected list returns
// it unchanged.
func (p *Plan) Select(candidates []Trace) ([]Trace, error) {
	sorted := slices.Clone(candidates)
	slices.SortFunc(sorted, func(a, b Trace) int { return strings.Compare(a.ID, b.ID) })
	matched := sorted[:0]
	for i, t := range sorted {
		if i > 0 && t.ID == sorted[i-1].ID {
			return nil, queryErrf("duplicate trace id %q", t.ID)
		}
		if p.matcher.Match(t) {
			matched = append(matched, t)
		}
	}
	return matched, nil
}

// ContentKey addresses the document Execute renders for an already-selected
// list by content: a SHA-256 over the canonical query (what echo() prints)
// and, per matched trace, its id, its Digest and its group_by values. That
// is everything the document is a function of — membership and order come
// from the ids, every number from the results the digests address, the
// group keys from the values — so equal keys mean equal bytes, and any
// registration that changes a query's answer changes its key. Every field
// is length-prefixed and every list count-prefixed, so no two inputs share
// an encoding.
func (p *Plan) ContentKey(matched []Trace) string {
	buf := make([]byte, 0, 1024)
	num := func(n int) { buf = binary.AppendUvarint(buf, uint64(n)) }
	str := func(s string) { num(len(s)); buf = append(buf, s...) }
	list := func(ss []string) {
		num(len(ss))
		for _, s := range ss {
			str(s)
		}
	}

	num(len(p.matcher.dims))
	for _, dim := range p.matcher.dims {
		str(dim)
		str(p.matcher.patterns[dim])
	}
	list(p.groupBy)
	list(p.metrics)
	if p.query.Compare == nil {
		num(0)
	} else {
		// Compile checked the baseline names exactly the group_by
		// dimensions, so their order spells the whole map.
		num(1)
		for _, dim := range p.groupBy {
			str(p.query.Compare.Baseline[dim])
		}
	}
	num(len(matched))
	for _, t := range matched {
		str(t.ID)
		str(t.Digest)
		for _, dim := range p.groupBy {
			str(DimensionValue(t, dim))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Execute runs the compiled query over the candidate traces: Select, load
// each match's results, merge exactly per group, render the byte-stable
// document. Candidates may arrive in any order; the document does not
// depend on it.
func (p *Plan) Execute(ctx context.Context, candidates []Trace, load ResultLoader) (*report.QueryDoc, error) {
	matched, err := p.Select(candidates)
	if err != nil {
		return nil, err
	}

	groups := map[string]*group{}
	for _, t := range matched {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		results, err := load(ctx, t)
		if err != nil {
			return nil, fmt.Errorf("fleet: loading results for trace %q: %w", t.ID, err)
		}
		keyVals := make([]string, len(p.groupBy))
		for i, dim := range p.groupBy {
			keyVals[i] = DimensionValue(t, dim)
		}
		gk := strings.Join(keyVals, "\x00")
		g := groups[gk]
		if g == nil {
			g = &group{keyVals: keyVals, merged: &overlap.Result{
				ByKey:       map[overlap.Key]vclock.Duration{},
				Transitions: map[overlap.TransitionKey]int{},
			}}
			groups[gk] = g
		}
		g.ids = append(g.ids, t.ID)
		g.procs += len(results)
		for _, res := range results {
			analysis.MergeResult(g.merged, res)
		}
	}

	ordered := make([]*group, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].keyVals, ordered[j].keyVals
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})

	doc := &report.QueryDoc{
		Query:  p.echo(),
		Traces: len(matched),
		Groups: make([]report.GroupJSON, 0, len(ordered)),
	}
	var baseline *group
	if p.query.Compare != nil {
		for _, g := range ordered {
			if p.isBaseline(g) {
				baseline = g
				break
			}
		}
		if baseline == nil {
			return nil, queryErrf("compare.baseline %v matches no group", p.query.Compare.Baseline)
		}
	}
	for _, g := range ordered {
		gj := report.GroupJSON{
			Key:      make(map[string]string, len(p.groupBy)),
			TraceIDs: g.ids,
			Procs:    g.procs,
			Metrics:  p.metricRows(g.merged),
		}
		for i, dim := range p.groupBy {
			gj.Key[dim] = g.keyVals[i]
		}
		gj.Breakdown, gj.Transitions = report.ResultJSON(g.merged)
		if baseline != nil {
			gj.Compare = p.compareRows(g, baseline)
		}
		doc.Groups = append(doc.Groups, gj)
	}
	return doc, nil
}

// echo renders the canonical query echo: the validated filter, the
// deduplicated group_by and metrics, the compare clause.
func (p *Plan) echo() report.QueryEchoJSON {
	e := report.QueryEchoJSON{GroupBy: p.groupBy, Metrics: p.metrics}
	if len(p.query.Filter) > 0 {
		e.Filter = make(map[string]string, len(p.query.Filter))
		for k, v := range p.query.Filter {
			e.Filter[k] = v
		}
	}
	if p.query.Compare != nil {
		e.Compare = &report.CompareEchoJSON{Baseline: p.query.Compare.Baseline}
	}
	return e
}

// isBaseline reports whether a group's key values equal the compare
// clause's baseline values.
func (p *Plan) isBaseline(g *group) bool {
	for i, dim := range p.groupBy {
		if g.keyVals[i] != p.query.Compare.Baseline[dim] {
			return false
		}
	}
	return true
}

// metricRows computes the selected metrics over one merged result, in the
// plan's metric order.
func (p *Plan) metricRows(res *overlap.Result) []report.MetricJSON {
	rows := make([]report.MetricJSON, 0, len(p.metrics))
	for _, m := range p.metrics {
		rows = append(rows, report.MetricJSON{Name: m, Value: metricValue(res, m)})
	}
	return rows
}

// metricValue computes one scalar metric from a merged result.
func metricValue(res *overlap.Result, metric string) float64 {
	switch metric {
	case MetricTotalNS:
		return float64(int64(res.Total()))
	case MetricCPUNS:
		var total vclock.Duration
		for k, d := range res.ByKey {
			if k.Res&overlap.ResCPU != 0 {
				total += d
			}
		}
		return float64(int64(total))
	case MetricGPUNS:
		return float64(int64(res.TotalGPUTime()))
	case MetricGPUFrac:
		total := res.Total()
		if total == 0 {
			return 0
		}
		return report.RoundFrac(float64(res.TotalGPUTime()) / float64(total))
	case MetricSpanNS:
		return float64(int64(res.SpanEnd - res.SpanStart))
	case MetricTransitions:
		n := 0
		for _, c := range res.Transitions {
			n += c
		}
		return float64(n)
	case MetricNetNS:
		return float64(int64(res.TotalCategoryCPUTime(trace.CatNetwork)))
	}
	return 0
}

// compareRows renders a group's compare block against the baseline.
func (p *Plan) compareRows(g, baseline *group) *report.CompareJSON {
	if g == baseline {
		return &report.CompareJSON{Baseline: true}
	}
	c := &report.CompareJSON{}
	for _, m := range p.metrics {
		gv := metricValue(g.merged, m)
		bv := metricValue(baseline.merged, m)
		c.Delta = append(c.Delta, report.MetricJSON{Name: m, Value: gv - bv})
		if bv != 0 {
			c.Ratio = append(c.Ratio, report.MetricJSON{Name: m, Value: report.RoundRatio(gv / bv)})
		}
	}
	return c
}
