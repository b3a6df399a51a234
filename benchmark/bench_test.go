package main

import (
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

const testScale = 0.02

func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	return &env{seed: seed, scale: testScale, store: t.TempDir()}
}

func loadSpec(t *testing.T) *benchmarkFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func names(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	slices.Sort(out)
	return out
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Every workload reports exactly the end-to-end metrics BENCHMARK.json
// declares, with the declared units, no op fails, and two runs of one seed
// process the same units and move the same bytes.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	pinRuntime()
	bf := loadSpec(t)
	declared := map[string]string{}
	for _, s := range bf.EndToEnd {
		declared[s.Name] = s.Unit
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			if bf.Workloads[i].Name != w.name {
				t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, bf.Workloads[i].Name, w.name)
			}
			var runs [2]*runResult
			for j := range runs {
				res, err := w.measure(testEnv(t, 7), w.rounds(bf.RunSeconds, testScale), time.Minute, 1)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.firstErr)
				}
				runs[j] = res
			}
			got := runs[0].endToEnd()
			if !slices.Equal(keys(got), names(bf.EndToEnd)) {
				t.Errorf("reported %v, BENCHMARK.json declares %v", keys(got), names(bf.EndToEnd))
			}
			for name, m := range got {
				if m.Unit != declared[name] {
					t.Errorf("%s: unit %q, declared %q", name, m.Unit, declared[name])
				}
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive finite number", name, m.Value)
				}
			}
			if runs[0].units != runs[1].units || runs[0].ioBytes != runs[1].ioBytes {
				t.Errorf("same seed, different work: %d units / %d B, then %d units / %d B",
					runs[0].units, runs[0].ioBytes, runs[1].units, runs[1].ioBytes)
			}
		})
	}
}

// The traced run reports exactly the per-layer metrics BENCHMARK.json
// declares and writes a span file.
func TestTracedRunReportsDeclaredLayers(t *testing.T) {
	bf := loadSpec(t)
	root := t.TempDir()
	spanFile := root + "/spans.json"
	out, err := run(config{workload: "analyze", seed: 7, seconds: bf.RunSeconds, scale: testScale, trace: true, spans: spanFile, root: root})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("traced run: correct=%v, %d of %d ops failed", out.Correct, out.Failed, out.Attempted)
	}
	if got, want := keys(out.Metrics), names(bf.PerLayer); !slices.Equal(got, want) {
		for _, n := range want {
			if _, ok := out.Metrics[n]; !ok {
				t.Errorf("declared but not reported: %s", n)
			}
		}
		for _, n := range got {
			if !slices.Contains(want, n) {
				t.Errorf("reported but not declared: %s", n)
			}
		}
	}
	declared := map[string]string{}
	for _, s := range bf.PerLayer {
		declared[s.Name] = s.Unit
	}
	for name, m := range out.Metrics {
		if m.Unit != declared[name] {
			t.Errorf("%s: unit %q, declared %q", name, m.Unit, declared[name])
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	if fi, err := os.Stat(spanFile); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
	if entries, _ := os.ReadDir(root + "/.bench_build"); len(entries) != 0 {
		t.Errorf("run left %d entries in its store directory", len(entries))
	}
}

// BENCHMARK.json stays inside the limits the driver refuses a file for.
func TestBenchmarkFileLimits(t *testing.T) {
	bf := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		use(m.Name)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range slices.Concat(bf.EndToEnd, bf.PerLayer) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		use(m.Name)
	}
}

// The reference kernel must not allocate: a GC cycle it triggers or helps
// with would put the program's garbage into the yardstick.
func TestReferenceKernelAllocatesNothing(t *testing.T) {
	var k refKernel
	if n := testing.AllocsPerRun(5, func() { k.run() }); n != 0 {
		t.Errorf("reference kernel allocates %v times per run", n)
	}
	if !slices.IsSorted(k.buf[:]) {
		t.Error("reference kernel left its buffer unsorted")
	}
}

// Self time is a span's duration minus what its direct children cover.
func TestSpanSelfTime(t *testing.T) {
	sp := &spans{nameID: map[string]int32{}}
	add := func(name string, parent int32, start, end int64) int32 {
		id, ok := sp.nameID[name]
		if !ok {
			id = int32(len(sp.names))
			sp.names = append(sp.names, name)
			sp.nameID[name] = id
		}
		sp.all = append(sp.all, span{name: id, parent: parent, op: 1, start: start, end: end})
		return int32(len(sp.all) - 1)
	}
	op := add("op", -1, 0, 100)
	a := add("a", op, 10, 40)
	add("a.inner", a, 15, 25)
	add("b", op, 50, 90)
	if got, want := sp.selfTimes(), []int64{30, 20, 10, 40}; !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if got := sp.durationsMS("a"); len(got) != 1 || got[0] != 30e-6 {
		t.Errorf("durations of a: %v", got)
	}

	// begin/end nest by call order, and a nil recorder records nothing.
	live := newSpans()
	outer := live.begin("outer", 3)
	inner := live.begin("inner", 3)
	live.end(inner)
	live.end(outer)
	if live.all[inner].parent != outer || live.all[outer].parent != -1 || live.all[inner].op != 3 {
		t.Errorf("nesting: %+v", live.all)
	}
	var off *spans
	off.end(off.begin("x", 1))
}

// quartileSpread matches Python's statistics.quantiles(v, n=4).
func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
	if got, want := quartileSpread([]float64{9, 4, 2, 5, 4}), (7.0-3.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}
