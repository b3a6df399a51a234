package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vclock"
)

func TestMatcherValidation(t *testing.T) {
	if _, err := NewMatcher(map[string]string{"bogus": "*"}); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	if _, err := NewMatcher(map[string]string{"label.": "*"}); err == nil {
		t.Fatal("empty label key accepted")
	}
	if _, err := NewMatcher(map[string]string{"workload": "[unclosed"}); err == nil {
		t.Fatal("malformed glob accepted")
	}
	m, err := NewMatcher(map[string]string{"workload": "ppo-*", "label.framework": "tf"})
	if err != nil {
		t.Fatal(err)
	}
	match := Trace{ID: "a", Meta: trace.Meta{Workload: "ppo-walker", Labels: map[string]string{"framework": "tf"}}}
	if !m.Match(match) {
		t.Fatal("expected match")
	}
	for _, miss := range []Trace{
		{ID: "b", Meta: trace.Meta{Workload: "dqn-pong", Labels: map[string]string{"framework": "tf"}}},
		{ID: "c", Meta: trace.Meta{Workload: "ppo-walker", Labels: map[string]string{"framework": "torch"}}},
		{ID: "d", Meta: trace.Meta{Workload: "ppo-walker"}}, // label absent -> ""
	} {
		if m.Match(miss) {
			t.Fatalf("trace %s should not match", miss.ID)
		}
	}
	// An empty filter matches everything, including label-less traces.
	all, err := NewMatcher(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !all.Match(Trace{ID: "e"}) {
		t.Fatal("empty matcher should match everything")
	}
}

func TestCompileValidation(t *testing.T) {
	bad := []Query{
		{GroupBy: []string{"bogus"}},
		{Metrics: []string{"bogus_ns"}},
		{Filter: map[string]string{"nope": "*"}},
		{Compare: &Compare{Baseline: map[string]string{"label.algo": "dqn"}}},                                                 // compare without group_by
		{GroupBy: []string{"label.algo"}, Compare: &Compare{Baseline: map[string]string{"workload": "x"}}},                    // wrong dimension
		{GroupBy: []string{"label.algo"}, Compare: &Compare{Baseline: map[string]string{}}},                                   // missing dimension
		{GroupBy: []string{"label.algo"}, Compare: &Compare{Baseline: map[string]string{"label.algo": "a", "workload": "b"}}}, // extra dimension
	}
	for i, q := range bad {
		if _, err := Compile(q); err == nil {
			t.Errorf("query %d compiled, want error", i)
		}
	}
	p, err := Compile(Query{
		GroupBy: []string{"label.algo", "label.algo"},
		Metrics: []string{MetricGPUNS, MetricTotalNS, MetricGPUNS},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.groupBy) != 1 {
		t.Fatalf("group_by not deduplicated: %v", p.groupBy)
	}
	if want := []string{MetricGPUNS, MetricTotalNS}; strings.Join(p.metrics, ",") != strings.Join(want, ",") {
		t.Fatalf("metrics %v, want %v (deduplicated, user order)", p.metrics, want)
	}
	// Empty metrics select the default set.
	p, err = Compile(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p.metrics, ",") != strings.Join(DefaultMetrics, ",") {
		t.Fatalf("default metrics %v, want %v", p.metrics, DefaultMetrics)
	}
}

// randomTrace generates one multi-process trace whose process ids start at
// base — so traces built with disjoint bases model the fleet case, where
// each run's processes are distinct.
func randomTrace(rng *rand.Rand, base, procs int) *trace.Trace {
	tr := &trace.Trace{Meta: trace.Meta{Workload: "random", Procs: map[trace.ProcID]trace.ProcInfo{}}}
	ops := []string{"inference", "simulation", "backpropagation"}
	cpuCats := []trace.Category{trace.CatPython, trace.CatSimulator, trace.CatBackend, trace.CatCUDA}
	gpuCats := []trace.Category{trace.CatGPUKernel, trace.CatGPUMemcpy}
	labels := []string{trace.TransPythonToBackend, trace.TransPythonToSimulator, trace.TransBackendToCUDA}
	for p := 0; p < procs; p++ {
		pid := trace.ProcID(base + p)
		tr.Meta.Procs[pid] = trace.ProcInfo{Name: fmt.Sprintf("proc%d", pid), Parent: -1}
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			start := vclock.Time(rng.Intn(100_000))
			width := vclock.Time(rng.Intn(5_000))
			e := trace.Event{Proc: pid, Start: start, End: start + width}
			switch rng.Intn(10) {
			case 0, 1:
				e.Kind = trace.KindOp
				e.Name = ops[rng.Intn(len(ops))]
			case 2:
				e.Kind = trace.KindPhase
				e.Name = fmt.Sprintf("phase%d", rng.Intn(3))
			case 3:
				e.Kind = trace.KindTransition
				e.Name = labels[rng.Intn(len(labels))]
				e.End = e.Start
			case 4, 5, 6:
				e.Kind = trace.KindGPU
				e.Cat = gpuCats[rng.Intn(len(gpuCats))]
				e.Name = "kernel"
			default:
				e.Kind = trace.KindCPU
				e.Cat = cpuCats[rng.Intn(len(cpuCats))]
			}
			tr.Events = append(tr.Events, e)
		}
	}
	return tr
}

func encodeResults(tb testing.TB, results map[trace.ProcID]*overlap.Result) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := report.EncodeResultSet(&buf, results); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetMergeExact is the tentpole property: for fleets of randomized
// traces with disjoint process ids, the union of per-trace Engine results
// — what a fleet query merges — is byte-identical (as a canonical result
// set) to one Engine run over the concatenated trace, and folding every
// process with analysis.MergeResult (what one group accumulates) equals
// the same fold over the concatenated run's results.
func TestFleetMergeExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nTraces := 2 + rng.Intn(3)
		concat := &trace.Trace{Meta: trace.Meta{Workload: "concat", Procs: map[trace.ProcID]trace.ProcInfo{}}}
		union := map[trace.ProcID]*overlap.Result{}
		fold := newEmptyResult()
		for i := 0; i < nTraces; i++ {
			tr := randomTrace(rng, i*10, 1+rng.Intn(3))
			concat.Events = append(concat.Events, tr.Events...)
			for p, info := range tr.Meta.Procs {
				concat.Meta.Procs[p] = info
			}
			results, err := analysis.RunContext(context.Background(), tr, analysis.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for p, res := range results {
				union[p] = res
				analysis.MergeResult(fold, res)
			}
		}
		concatResults, err := analysis.RunContext(context.Background(), concat, analysis.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encodeResults(t, union), encodeResults(t, concatResults); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: per-trace result union diverges from concatenated engine run\nunion:  %s\nconcat: %s", seed, got, want)
		}
		concatFold := newEmptyResult()
		for _, res := range concatResults {
			analysis.MergeResult(concatFold, res)
		}
		one := map[trace.ProcID]*overlap.Result{0: fold}
		other := map[trace.ProcID]*overlap.Result{0: concatFold}
		if got, want := encodeResults(t, one), encodeResults(t, other); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: group fold diverges from concatenated fold", seed)
		}
	}
}

func newEmptyResult() *overlap.Result {
	return &overlap.Result{
		ByKey:       map[overlap.Key]vclock.Duration{},
		Transitions: map[overlap.TransitionKey]int{},
	}
}

// staticLoader serves hand-built results per trace id.
func staticLoader(results map[string]map[trace.ProcID]*overlap.Result) ResultLoader {
	return func(_ context.Context, t Trace) (map[trace.ProcID]*overlap.Result, error) {
		return results[t.ID], nil
	}
}

// fleetFixture is three tiny single-proc traces across two algo labels —
// small enough that the rendered query document is hand-checkable.
func fleetFixture() (traces []Trace, results map[string]map[trace.ProcID]*overlap.Result) {
	mk := func(id, algo string, proc trace.ProcID, gpu, cpu int64) {
		traces = append(traces, Trace{ID: id, Meta: trace.Meta{
			Workload: "ppo-" + id, Labels: map[string]string{"algo": algo},
		}})
		res := newEmptyResult()
		res.ByKey[overlap.Key{Op: "inference", Res: overlap.ResCPU, Cat: trace.CatPython}] = vclock.Duration(cpu)
		res.ByKey[overlap.Key{Op: "inference", Res: overlap.ResGPU, Cat: trace.CatGPUKernel}] = vclock.Duration(gpu)
		res.Transitions[overlap.TransitionKey{Op: "inference", Label: trace.TransPythonToBackend}] = 2
		res.SpanStart, res.SpanEnd = 100, vclock.Time(100+cpu+gpu)
		results[id] = map[trace.ProcID]*overlap.Result{proc: res}
	}
	results = map[string]map[trace.ProcID]*overlap.Result{}
	mk("run-c", "ppo", 1, 400, 600)
	mk("run-a", "dqn", 2, 100, 900)
	mk("run-b", "ppo", 3, 300, 700)
	return traces, results
}

// TestExecuteDocumentOrdering pins the document's deterministic layout:
// groups sort by key, member trace ids ascend, re-execution is
// byte-identical, and compare marks the baseline.
func TestExecuteDocumentOrdering(t *testing.T) {
	traces, results := fleetFixture()
	plan, err := Compile(Query{
		GroupBy: []string{"label.algo"},
		Metrics: []string{MetricTotalNS, MetricGPUNS, MetricGPUFrac, MetricTransitions},
		Compare: &Compare{Baseline: map[string]string{"label.algo": "dqn"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := plan.Execute(context.Background(), traces, staticLoader(results))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Traces != 3 || len(doc.Groups) != 2 {
		t.Fatalf("got %d traces in %d groups, want 3 in 2", doc.Traces, len(doc.Groups))
	}
	if doc.Groups[0].Key["label.algo"] != "dqn" || doc.Groups[1].Key["label.algo"] != "ppo" {
		t.Fatalf("groups out of key order: %v then %v", doc.Groups[0].Key, doc.Groups[1].Key)
	}
	if ids := doc.Groups[1].TraceIDs; strings.Join(ids, ",") != "run-b,run-c" {
		t.Fatalf("ppo group members %v, want ascending [run-b run-c]", ids)
	}
	if c := doc.Groups[0].Compare; c == nil || !c.Baseline {
		t.Fatalf("dqn group compare %+v, want baseline marker", doc.Groups[0].Compare)
	}
	ppo := doc.Groups[1]
	if ppo.Procs != 2 {
		t.Fatalf("ppo group procs %d, want 2", ppo.Procs)
	}
	wantMetrics := map[string]float64{
		"total_ns":    2000,
		"gpu_ns":      700,
		"gpu_frac":    0.35,
		"transitions": 4,
	}
	for _, m := range ppo.Metrics {
		if m.Value != wantMetrics[m.Name] {
			t.Fatalf("ppo metric %s = %v, want %v", m.Name, m.Value, wantMetrics[m.Name])
		}
	}
	if c := ppo.Compare; c == nil || c.Delta[0].Value != 1000 || c.Ratio[0].Value != 2 {
		t.Fatalf("ppo compare %+v, want total_ns delta 1000 ratio 2", ppo.Compare)
	}

	var first, second bytes.Buffer
	if err := doc.Encode(&first); err != nil {
		t.Fatal(err)
	}
	doc2, err := plan.Execute(context.Background(), traces, staticLoader(results))
	if err != nil {
		t.Fatal(err)
	}
	if err := doc2.Encode(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-executed document is not byte-identical")
	}
}

// TestExecuteGolden pins the full rendered document for a minimal fleet,
// so any drift in field ordering or rounding is caught at the byte level.
func TestExecuteGolden(t *testing.T) {
	traces, results := fleetFixture()
	plan, err := Compile(Query{
		Filter:  map[string]string{"workload": "ppo-run-[ab]"},
		GroupBy: []string{"label.algo"},
		Metrics: []string{MetricTotalNS, MetricGPUFrac},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := plan.Execute(context.Background(), traces, staticLoader(results))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "query": {
    "filter": {
      "workload": "ppo-run-[ab]"
    },
    "group_by": [
      "label.algo"
    ],
    "metrics": [
      "total_ns",
      "gpu_frac"
    ]
  },
  "traces": 2,
  "groups": [
    {
      "key": {
        "label.algo": "dqn"
      },
      "trace_ids": [
        "run-a"
      ],
      "procs": 1,
      "metrics": [
        {
          "name": "total_ns",
          "value": 1000
        },
        {
          "name": "gpu_frac",
          "value": 0.1
        }
      ],
      "breakdown": {
        "total_ns": 1000,
        "gpu_ns": 100,
        "ops": [
          {
            "op": "inference",
            "total_ns": 900,
            "simulator_ns": 0,
            "python_ns": 900,
            "cuda_ns": 0,
            "backend_ns": 0,
            "network_ns": 0,
            "gpu_ns": 100
          }
        ]
      },
      "transitions": [
        {
          "op": "inference",
          "python_to_backend": 2,
          "python_to_simulator": 0,
          "backend_to_cuda": 0
        }
      ]
    },
    {
      "key": {
        "label.algo": "ppo"
      },
      "trace_ids": [
        "run-b"
      ],
      "procs": 1,
      "metrics": [
        {
          "name": "total_ns",
          "value": 1000
        },
        {
          "name": "gpu_frac",
          "value": 0.3
        }
      ],
      "breakdown": {
        "total_ns": 1000,
        "gpu_ns": 300,
        "ops": [
          {
            "op": "inference",
            "total_ns": 700,
            "simulator_ns": 0,
            "python_ns": 700,
            "cuda_ns": 0,
            "backend_ns": 0,
            "network_ns": 0,
            "gpu_ns": 300
          }
        ]
      },
      "transitions": [
        {
          "op": "inference",
          "python_to_backend": 2,
          "python_to_simulator": 0,
          "backend_to_cuda": 0
        }
      ]
    }
  ]
}
`
	if buf.String() != golden {
		t.Fatalf("query document drifted from golden:\n%s", buf.String())
	}
}

func TestExecuteDuplicateID(t *testing.T) {
	traces := []Trace{{ID: "x"}, {ID: "x"}}
	plan, err := Compile(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), traces, staticLoader(nil)); err == nil {
		t.Fatal("duplicate trace id accepted")
	}
}

func TestExecuteBaselineMissing(t *testing.T) {
	traces, results := fleetFixture()
	plan, err := Compile(Query{
		GroupBy: []string{"label.algo"},
		Compare: &Compare{Baseline: map[string]string{"label.algo": "nope"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), traces, staticLoader(results)); err == nil {
		t.Fatal("compare against missing baseline group accepted")
	}
}

// TestSelect: Select is Execute's first half — duplicate ids fail, matches
// come back id-ascending whatever the input order, the input is untouched,
// and selecting a selection changes nothing (which is what lets Execute run
// over an already-selected list).
func TestSelect(t *testing.T) {
	traces, _ := fleetFixture()
	plan, err := Compile(Query{Filter: map[string]string{"label.algo": "ppo"}})
	if err != nil {
		t.Fatal(err)
	}
	ids := func(ts []Trace) string {
		var out []string
		for _, t := range ts {
			out = append(out, t.ID)
		}
		return strings.Join(out, ",")
	}
	before := ids(traces)
	matched, err := plan.Select(traces)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(matched); got != "run-b,run-c" {
		t.Fatalf("selected %s, want run-b,run-c", got)
	}
	if got := ids(traces); got != before {
		t.Fatalf("Select reordered its input: %s, was %s", got, before)
	}
	again, err := plan.Select(matched)
	if err != nil || ids(again) != ids(matched) {
		t.Fatalf("re-selecting gave %s (err %v), want %s", ids(again), err, ids(matched))
	}
	// A duplicate fails even when the filter would have dropped it.
	var qerr *QueryError
	if _, err := plan.Select(append(traces, Trace{ID: "run-a"})); !errors.As(err, &qerr) {
		t.Fatalf("duplicate id: err %v, want a QueryError", err)
	}
}

// TestContentKey pins what the key is a function of: the canonical query
// (not its spelling), and each matched trace's id, digest and group_by
// values — nothing else, and each field with its own boundary.
func TestContentKey(t *testing.T) {
	key := func(q Query, traces ...Trace) string {
		t.Helper()
		plan, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		matched, err := plan.Select(traces)
		if err != nil {
			t.Fatal(err)
		}
		return plan.ContentKey(matched)
	}
	tr := func(id, digest, algo string) Trace {
		return Trace{ID: id, Digest: digest, Meta: trace.Meta{Labels: map[string]string{"algo": algo}}}
	}
	q := Query{
		Filter:  map[string]string{"label.algo": "*"},
		GroupBy: []string{"label.algo"},
		Metrics: []string{MetricTotalNS, MetricGPUNS},
		Compare: &Compare{Baseline: map[string]string{"label.algo": "dqn"}},
	}
	a, b := tr("a", "d1", "ppo"), tr("b", "d2", "dqn")
	base := key(q, a, b)

	same := map[string]string{
		"candidate order": key(q, b, a),
		"duplicate metrics and dimensions": key(Query{
			Filter:  q.Filter,
			GroupBy: []string{"label.algo", "label.algo"},
			Metrics: []string{MetricTotalNS, MetricGPUNS, MetricTotalNS},
			Compare: q.Compare,
		}, a, b),
		"a label no group_by reads": key(q, a, Trace{ID: "b", Digest: "d2", Meta: trace.Meta{
			Workload: "w", Labels: map[string]string{"algo": "dqn", "note": "x"},
		}}),
	}
	for name, k := range same {
		if k != base {
			t.Errorf("%s changed the key", name)
		}
	}
	narrow := Query{Filter: map[string]string{"label.algo": "ppo"}, GroupBy: q.GroupBy}
	if key(narrow, a) != key(narrow, a, b) {
		t.Error("a candidate the filter rejects changed the key")
	}

	different := map[string]string{
		"a digest":         key(q, a, tr("b", "d2'", "dqn")),
		"an id":            key(q, a, tr("b2", "d2", "dqn")),
		"a group_by value": key(q, tr("a", "d1", "a2c"), b),
		"a new member":     key(q, a, b, tr("c", "d3", "ppo")),
		"the metrics":      key(Query{Filter: q.Filter, GroupBy: q.GroupBy, Metrics: []string{MetricTotalNS}, Compare: q.Compare}, a, b),
		"the metric order": key(Query{Filter: q.Filter, GroupBy: q.GroupBy, Metrics: []string{MetricGPUNS, MetricTotalNS}, Compare: q.Compare}, a, b),
		"the filter":       key(Query{Filter: map[string]string{"label.algo": "?*"}, GroupBy: q.GroupBy, Metrics: q.Metrics, Compare: q.Compare}, a, b),
		"the compare":      key(Query{Filter: q.Filter, GroupBy: q.GroupBy, Metrics: q.Metrics}, a, b),
		"the baseline":     key(Query{Filter: q.Filter, GroupBy: q.GroupBy, Metrics: q.Metrics, Compare: &Compare{Baseline: map[string]string{"label.algo": "ppo"}}}, a, b),
		"the group_by":     key(Query{Filter: q.Filter, Metrics: q.Metrics}, a, b),
		"a field boundary": key(q, tr("a", "d1", "ppo"), tr("b", "d", "2dqn")),
	}
	seen := map[string]string{base: "the base"}
	for name, k := range different {
		if other, ok := seen[k]; ok {
			t.Errorf("changing %s gives the key of %s", name, other)
		}
		seen[k] = name
	}
}
