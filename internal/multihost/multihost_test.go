package multihost

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// distSpec is the 3-actor/1-learner run every test here merges.
var distSpec = workloads.DistributedSpec{
	Actors: 3, Algo: "DDPG", Env: "Hopper", Model: backend.EagerPyTorch,
	TotalSteps: 200, Seed: 42,
}

var (
	distOnce  sync.Once
	distCache []workloads.HostRun
	distErr   error
)

// distRuns executes the shared distributed run once per test binary.
func distRuns(tb testing.TB) []workloads.HostRun {
	tb.Helper()
	distOnce.Do(func() {
		distCache, distErr = workloads.RunDistributed(distSpec, trace.Full())
	})
	if distErr != nil {
		tb.Fatalf("RunDistributed: %v", distErr)
	}
	return distCache
}

func distTraces(tb testing.TB) []*trace.Trace {
	runs := distRuns(tb)
	ts := make([]*trace.Trace, len(runs))
	for i, r := range runs {
		ts[i] = r.Trace
	}
	return ts
}

func TestMergeTracesEndToEnd(t *testing.T) {
	runs := distRuns(t)
	merged, stats, err := MergeTraces(distTraces(t), Options{})
	if err != nil {
		t.Fatalf("MergeTraces: %v", err)
	}

	want := []string{"actor00", "actor01", "actor02", "learner"}
	if !reflect.DeepEqual(stats.Hosts, want) {
		t.Fatalf("hosts = %v, want %v", stats.Hosts, want)
	}
	if merged.Meta.Labels[LabelHosts] != "actor00,actor01,actor02,learner" {
		t.Fatalf("hosts label = %q", merged.Meta.Labels[LabelHosts])
	}
	if merged.Meta.Host != "" {
		t.Fatalf("merged trace claims single host %q", merged.Meta.Host)
	}
	if stats.Messages == 0 {
		t.Fatal("no messages constrained the alignment")
	}

	// Proc ids land in disjoint per-host ranges, hosts recorded in names.
	for p, info := range merged.Meta.Procs {
		hi := int(p) / ProcStride
		if hi < 0 || hi >= len(stats.Hosts) {
			t.Fatalf("proc %d outside any host range", p)
		}
		if wantPrefix := stats.Hosts[hi] + "/"; info.Name[:len(wantPrefix)] != wantPrefix {
			t.Fatalf("proc %d name %q not under host %q", p, info.Name, stats.Hosts[hi])
		}
	}

	// The unchanged engine analyzes the merged trace with a nonzero
	// network-wait breakdown.
	results := analysis.Run(merged, analysis.Options{Workers: 1})
	var net vclock.Duration
	for _, res := range results {
		net += res.TotalCategoryCPUTime(trace.CatNetwork)
	}
	if net == 0 {
		t.Fatal("merged analysis has zero Network time")
	}

	// Estimated offsets recover the injected ground-truth skews: applied
	// shifts differ between hosts by (skew_ref − skew_h) up to the
	// bracket half-width (about one message round-trip).
	skews := map[string]vclock.Duration{}
	for _, r := range runs {
		skews[r.Host] = r.Skew
	}
	ref := stats.Hosts[0]
	const tol = 500 * vclock.Microsecond
	for _, h := range stats.Hosts {
		got := stats.Offsets[h] - stats.Offsets[ref]
		wantDiff := skews[ref] - skews[h]
		if diff := got - wantDiff; diff < -tol || diff > tol {
			t.Errorf("host %s: recovered relative offset %v, true %v (err %v)", h, got, wantDiff, diff)
		}
	}
}

// TestMergeStitchExact: engine analysis of the merged trace equals the
// per-host analyses stitched with analysis.MergeResult for each per-host
// group — durations and transition counts exactly, spans shifted by the
// recorded per-host offset.
func TestMergeStitchExact(t *testing.T) {
	runs := distRuns(t)
	merged, stats, err := MergeTraces(distTraces(t), Options{})
	if err != nil {
		t.Fatalf("MergeTraces: %v", err)
	}
	mergedRes := analysis.Run(merged, analysis.Options{Workers: 1})

	for _, r := range runs {
		hi := hostIndex(stats.Hosts, r.Host)
		applied := stats.Offsets[r.Host]

		stitchGroup := newEmptyResult()
		for _, res := range analysis.Run(r.Trace, analysis.Options{Workers: 1}) {
			analysis.MergeResult(stitchGroup, res)
		}
		mergedGroup := newEmptyResult()
		for p, res := range mergedRes {
			if int(p)/ProcStride == hi {
				analysis.MergeResult(mergedGroup, res)
			}
		}

		if !reflect.DeepEqual(mergedGroup.ByKey, stitchGroup.ByKey) {
			t.Errorf("host %s: merged-group ByKey != stitched per-host ByKey", r.Host)
		}
		if !reflect.DeepEqual(mergedGroup.Transitions, stitchGroup.Transitions) {
			t.Errorf("host %s: merged-group Transitions != stitched Transitions", r.Host)
		}
		if got, want := mergedGroup.SpanStart, stitchGroup.SpanStart+vclock.Time(applied); got != want {
			t.Errorf("host %s: merged SpanStart %v, want local+offset %v", r.Host, got, want)
		}
		if got, want := mergedGroup.SpanEnd, stitchGroup.SpanEnd+vclock.Time(applied); got != want {
			t.Errorf("host %s: merged SpanEnd %v, want local+offset %v", r.Host, got, want)
		}
	}
}

// TestMergePermutationDeterminism: the written merged directory is
// byte-identical (same content digest) for any permutation of the input
// host dirs.
func TestMergePermutationDeterminism(t *testing.T) {
	runs := distRuns(t)
	root := t.TempDir()
	dirs := make([]string, len(runs))
	for i, r := range runs {
		dirs[i] = filepath.Join(root, r.Host)
		w, err := trace.NewWriter(dirs[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Append(r.Trace.Events...)
		if err := w.Close(r.Trace.Meta); err != nil {
			t.Fatal(err)
		}
	}

	var baseline string
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		perm := append([]string(nil), dirs...)
		if trial > 0 {
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		}
		dst := filepath.Join(root, "merged", string(rune('a'+trial)))
		stats, err := Merge(context.Background(), dst, perm, Options{})
		if err != nil {
			t.Fatalf("trial %d: Merge(%v): %v", trial, perm, err)
		}
		digest, err := trace.DirDigest(dst)
		if err != nil {
			t.Fatal(err)
		}
		if digest != stats.Digest {
			t.Fatalf("trial %d: stats digest %s != recomputed %s", trial, stats.Digest, digest)
		}
		if trial == 0 {
			baseline = digest
		} else if digest != baseline {
			t.Fatalf("trial %d: permuted merge digest %s != baseline %s", trial, digest, baseline)
		}
	}
}

func synthHost(host string, events ...trace.Event) *trace.Trace {
	return &trace.Trace{
		Events: events,
		Meta: trace.Meta{
			Workload: "synth",
			Host:     host,
			Procs:    map[trace.ProcID]trace.ProcInfo{0: {Name: "p", Parent: -1}},
		},
	}
}

func netEv(name string, start, end vclock.Time) trace.Event {
	return trace.Event{Kind: trace.KindCPU, Cat: trace.CatNetwork, Proc: 0, Start: start, End: end, Name: name}
}

func TestMergeRejections(t *testing.T) {
	t.Run("missing host", func(t *testing.T) {
		a := synthHost("", netEv("net.send:m1", 90, 100))
		if _, _, err := MergeTraces([]*trace.Trace{a}, Options{}); err == nil {
			t.Fatal("merge accepted a trace without Meta.Host")
		}
	})
	t.Run("one-directional traffic", func(t *testing.T) {
		a := synthHost("a", netEv("net.send:m1", 90, 100))
		b := synthHost("b", netEv("net.recv:m1", 280, 300))
		_, _, err := MergeTraces([]*trace.Trace{a, b}, Options{})
		if !errors.Is(err, ErrAmbiguous) {
			t.Fatalf("err = %v, want ErrAmbiguous", err)
		}
	})
	t.Run("bracket too wide", func(t *testing.T) {
		a := synthHost("a", netEv("net.send:m1", 90, 100), netEv("net.recv:m2", 600, 650))
		b := synthHost("b", netEv("net.recv:m1", 280, 300), netEv("net.send:m2", 380, 400))
		if _, _, err := MergeTraces([]*trace.Trace{a, b}, Options{}); err != nil {
			t.Fatalf("bidirectional merge should pass under the default bound: %v", err)
		}
		_, _, err := MergeTraces([]*trace.Trace{a, b}, Options{MaxUncertainty: 1})
		if !errors.Is(err, ErrAmbiguous) {
			t.Fatalf("err = %v, want ErrAmbiguous", err)
		}
	})
	t.Run("inconsistent causality", func(t *testing.T) {
		// a's message arrives (by b's clock) long before it was sent,
		// and vice versa: no offset satisfies both directions.
		a := synthHost("a", netEv("net.send:m1", 90, 100), netEv("net.recv:m2", 0, 5))
		b := synthHost("b", netEv("net.recv:m1", 40, 50), netEv("net.send:m2", 55, 60))
		_, _, err := MergeTraces([]*trace.Trace{a, b}, Options{})
		if !errors.Is(err, ErrInconsistent) {
			t.Fatalf("err = %v, want ErrInconsistent", err)
		}
	})
	t.Run("unpaired message", func(t *testing.T) {
		a := synthHost("a", netEv("net.send:m1", 90, 100))
		b := synthHost("b", netEv("net.recv:mX", 280, 300))
		if _, _, err := MergeTraces([]*trace.Trace{a, b}, Options{}); err == nil {
			t.Fatal("merge accepted unpaired messages")
		}
	})
}

// TestMergeCausalOrder: every message's recv event ends at or after its
// send event ends on the merged timeline.
func TestMergeCausalOrder(t *testing.T) {
	merged, _, err := MergeTraces(distTraces(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sends := map[string]vclock.Time{}
	recvs := map[string]vclock.Time{}
	for _, e := range merged.Events {
		if e.Kind != trace.KindCPU || e.Cat != trace.CatNetwork {
			continue
		}
		if len(e.Name) > len("net.send:") && e.Name[:len("net.send:")] == "net.send:" {
			sends[e.Name[len("net.send:"):]] = e.End
		}
		if len(e.Name) > len("net.recv:") && e.Name[:len("net.recv:")] == "net.recv:" {
			recvs[e.Name[len("net.recv:"):]] = e.End
		}
	}
	if len(sends) == 0 || len(sends) != len(recvs) {
		t.Fatalf("found %d sends, %d recvs", len(sends), len(recvs))
	}
	for id, s := range sends {
		if r, ok := recvs[id]; !ok || r < s {
			t.Errorf("message %s: recv end %v before send end %v on merged timeline", id, r, s)
		}
	}
}

func hostIndex(hosts []string, h string) int {
	for i, v := range hosts {
		if v == h {
			return i
		}
	}
	return -1
}

func newEmptyResult() *overlap.Result {
	return &overlap.Result{
		ByKey:       map[overlap.Key]vclock.Duration{},
		Transitions: map[overlap.TransitionKey]int{},
	}
}
