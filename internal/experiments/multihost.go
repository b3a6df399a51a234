package experiments

// The multihost metric bundle backs hypothesis D.multihost-merge: a
// distributed actor/learner run merges into one causally-ordered trace
// byte-deterministically (any input-dir permutation yields the same
// DirDigest), the merged analysis equals the per-host analyses stitched
// with analysis.MergeResult, the trace-only clock-offset recovery lands
// within a round-trip of the injected ground-truth skews, and network
// wait is a visible share of the merged breakdown.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/multihost"
	"repro/internal/overlap"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

func multihostMetrics(opts Options) (map[string]float64, error) {
	spec := workloads.DistributedSpec{
		Actors: 3, Algo: "DDPG", Env: "Hopper", Model: backend.EagerPyTorch,
		TotalSteps: opts.steps(200), Seed: opts.Seed,
	}
	runs, err := workloads.RunDistributed(spec, trace.Full())
	if err != nil {
		return nil, fmt.Errorf("experiments: multihost: %w", err)
	}

	root, err := os.MkdirTemp("", "rlscope-hyp-multihost-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	dirs := make([]string, len(runs))
	for i, r := range runs {
		dirs[i] = filepath.Join(root, r.Host)
		w, err := trace.NewWriter(dirs[i], 0, trace.WithFormat(trace.FormatV2))
		if err != nil {
			return nil, err
		}
		w.Append(r.Trace.Events...)
		if err := w.Close(r.Trace.Meta); err != nil {
			return nil, err
		}
	}

	// Merge once in manifest order and once with the input dirs reversed;
	// a deterministic merge writes byte-identical directories.
	statsA, err := multihost.Merge(context.Background(), filepath.Join(root, "merged-a"), dirs, multihost.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: multihost: merge: %w", err)
	}
	rev := make([]string, len(dirs))
	for i, d := range dirs {
		rev[len(dirs)-1-i] = d
	}
	statsB, err := multihost.Merge(context.Background(), filepath.Join(root, "merged-b"), rev, multihost.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: multihost: permuted merge: %w", err)
	}
	identical := boolMetric(statsA.Digest == statsB.Digest)

	merged, err := trace.ReadDir(filepath.Join(root, "merged-a"))
	if err != nil {
		return nil, err
	}
	mergedRes := analysis.Run(merged, analysis.Options{Workers: 1})

	// Stitch exactness: for every host, merging that host's per-proc
	// results out of the merged analysis must reproduce the standalone
	// per-host analysis exactly (durations and transition counts).
	stitchExact := 1.0
	for hi, r := range runs {
		hostIdx := hi
		for j, h := range statsA.Hosts {
			if h == r.Host {
				hostIdx = j
			}
		}
		standalone := newGroupResult()
		for _, res := range analysis.Run(r.Trace, analysis.Options{Workers: 1}) {
			analysis.MergeResult(standalone, res)
		}
		group := newGroupResult()
		for p, res := range mergedRes {
			if int(p)/multihost.ProcStride == hostIdx {
				analysis.MergeResult(group, res)
			}
		}
		if !reflect.DeepEqual(group.ByKey, standalone.ByKey) ||
			!reflect.DeepEqual(group.Transitions, standalone.Transitions) {
			stitchExact = 0
		}
	}

	// Offset recovery: relative applied shifts vs the injected skews.
	skews := map[string]vclock.Duration{}
	for _, r := range runs {
		skews[r.Host] = r.Skew
	}
	ref := statsA.Hosts[0]
	var offErr vclock.Duration
	for _, h := range statsA.Hosts {
		got := statsA.Offsets[h] - statsA.Offsets[ref]
		want := skews[ref] - skews[h]
		if d := got - want; d > offErr {
			offErr = d
		} else if -d > offErr {
			offErr = -d
		}
	}

	var net, total vclock.Duration
	for _, res := range mergedRes {
		net += res.TotalCategoryCPUTime(trace.CatNetwork)
		total += res.Total()
	}
	networkFrac := 0.0
	if total > 0 {
		networkFrac = net.Seconds() / total.Seconds()
	}

	return map[string]float64{
		"identical":     identical,
		"stitch_exact":  stitchExact,
		"offset_err_ms": float64(offErr) / float64(vclock.Millisecond),
		"network_frac":  networkFrac,
		"messages":      float64(statsA.Messages),
		"hosts":         float64(len(statsA.Hosts)),
	}, nil
}

func newGroupResult() *overlap.Result {
	return &overlap.Result{
		ByKey:       map[overlap.Key]vclock.Duration{},
		Transitions: map[overlap.TransitionKey]int{},
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
