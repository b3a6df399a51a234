// Package multihost merges the per-host trace directories of one
// distributed run into a single causally-ordered trace the unchanged
// analysis Engine can process.
//
// Real cluster hosts do not share a clock, so per-host traces cannot simply
// be concatenated: a receiver's clock may place a message's processing
// before the sender's clock places its transmission. The workloads'
// communication layer records every cross-host message as a pair of Network
// CPU events sharing an id ("net.send:<id>" / "net.recv:<id>"), which turns
// each message into a causality constraint on the two hosts' clock offsets.
// Merge intersects those constraints per host pair (align.go), rejects
// merges where the surviving bracket is too wide to order events, shifts
// every host onto the composed common timeline, rewrites process ids into
// disjoint per-host ranges, and writes one v2 trace directory whose
// network-wait shows up as a first-class resource next to CPU and GPU time.
package multihost

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// DefaultMaxUncertainty is the largest acceptable pairwise offset-bracket
// half-width when Options.MaxUncertainty is zero. Brackets are about one
// round-trip wide, so this admits LAN-scale traffic comfortably while
// rejecting traces whose cross-traffic is too sparse or too slow to order.
const DefaultMaxUncertainty = 5 * vclock.Millisecond

// ProcStride is the per-host process-id range in the merged trace: host i
// (in sorted host-name order) owns ids [i×ProcStride, (i+1)×ProcStride).
// Disjoint ranges are what make per-host groups exact under
// analysis.MergeResult — the same invariant fleet queries rely on across
// runs.
const ProcStride = 1 << 16

// Reserved label keys the merge writes into the output's Meta.Labels.
const (
	// LabelHosts lists the merged host names, comma-joined in sorted
	// order.
	LabelHosts = "hosts"
	// LabelOffsetPrefix + <host> records the shift applied to that
	// host's timestamps: merged time = host-local time + offset_ns.
	LabelOffsetPrefix = "offset_ns."
)

// Options configures a merge.
type Options struct {
	// MaxUncertainty is the largest acceptable half-width of a pairwise
	// clock-offset bracket; wider brackets mean the traces cannot be
	// causally ordered and the merge is rejected (0 = default).
	MaxUncertainty vclock.Duration
}

func (o Options) maxUncertainty() vclock.Duration {
	if o.MaxUncertainty > 0 {
		return o.MaxUncertainty
	}
	return DefaultMaxUncertainty
}

// Stats reports what a merge did.
type Stats struct {
	// Hosts are the merged host names in sorted (= proc-range) order.
	Hosts []string
	// Procs and Events count the merged output.
	Procs, Events int
	// Messages is the number of cross-host send/recv pairs that
	// constrained the alignment.
	Messages int
	// Offsets maps host → applied shift (merged = local + shift), the
	// same values recorded in the output's offset_ns.<host> labels.
	Offsets map[string]vclock.Duration
	// Digest is the output directory's content digest (dir merges only).
	Digest string
}

// MergeTraces aligns and merges loaded per-host traces in memory. Every
// input must carry a distinct Meta.Host; inputs may arrive in any order —
// the output is a pure function of the input set (hosts are sorted by
// name, and the first sorted host anchors the merged timeline).
func MergeTraces(inputs []*trace.Trace, opts Options) (*trace.Trace, *Stats, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("multihost: no input traces")
	}
	hosts := make([]*trace.Trace, len(inputs))
	copy(hosts, inputs)
	seen := map[string]bool{}
	for _, t := range hosts {
		if t.Meta.Host == "" {
			return nil, nil, fmt.Errorf("multihost: input trace (workload %q) has no Meta.Host — record hosts at profiling time", t.Meta.Workload)
		}
		if seen[t.Meta.Host] {
			return nil, nil, fmt.Errorf("multihost: duplicate host %q", t.Meta.Host)
		}
		seen[t.Meta.Host] = true
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Meta.Host < hosts[j].Meta.Host })
	for _, t := range hosts[1:] {
		if t.Meta.Config != hosts[0].Meta.Config {
			return nil, nil, fmt.Errorf("multihost: host %q ran with flags %v, host %q with %v — one run uses one flag set",
				t.Meta.Host, t.Meta.Config, hosts[0].Meta.Host, hosts[0].Meta.Config)
		}
		if t.Meta.Workload != hosts[0].Meta.Workload {
			return nil, nil, fmt.Errorf("multihost: host %q is workload %q, host %q is %q — host dirs from different runs",
				t.Meta.Host, t.Meta.Workload, hosts[0].Meta.Host, hosts[0].Meta.Workload)
		}
	}

	msgs, err := collectMessages(hosts)
	if err != nil {
		return nil, nil, err
	}
	offsets, err := estimateOffsets(hosts, msgs, opts.maxUncertainty())
	if err != nil {
		return nil, nil, err
	}

	// Shift every host onto the common timeline (local − δ̂), then
	// normalize so the merged trace starts at 0 — offsets can make raw
	// shifted times negative, and a common origin keeps the output
	// independent of the reference host's absolute clock value.
	var minStart vclock.Time
	first := true
	for hi, t := range hosts {
		for _, e := range t.Events {
			if s := e.Start - vclock.Time(offsets[hi]); first || s < minStart {
				minStart, first = s, false
			}
		}
	}

	stats := &Stats{
		Hosts:   make([]string, len(hosts)),
		Offsets: make(map[string]vclock.Duration, len(hosts)),
	}
	merged := &trace.Trace{
		Meta: trace.Meta{
			Workload: hosts[0].Meta.Workload,
			Config:   hosts[0].Meta.Config,
			Labels:   map[string]string{},
			Procs:    map[trace.ProcID]trace.ProcInfo{},
		},
	}
	hostNames := make([]string, len(hosts))
	for hi, t := range hosts {
		hostNames[hi] = t.Meta.Host
		stats.Hosts[hi] = t.Meta.Host
		applied := -offsets[hi] - vclock.Duration(minStart)
		stats.Offsets[t.Meta.Host] = applied
		merged.Meta.Labels[LabelOffsetPrefix+t.Meta.Host] = strconv.FormatInt(int64(applied), 10)

		base := trace.ProcID(hi * ProcStride)
		remap := func(p trace.ProcID) (trace.ProcID, error) {
			if p < 0 || p >= ProcStride {
				return 0, fmt.Errorf("multihost: host %q process id %d outside per-host range [0, %d)", t.Meta.Host, p, ProcStride)
			}
			return base + p, nil
		}
		for p, info := range t.Meta.Procs {
			np, err := remap(p)
			if err != nil {
				return nil, nil, err
			}
			parent := trace.ProcID(-1)
			if info.Parent >= 0 {
				if parent, err = remap(info.Parent); err != nil {
					return nil, nil, err
				}
			}
			merged.Meta.Procs[np] = trace.ProcInfo{Name: t.Meta.Host + "/" + info.Name, Parent: parent}
		}
		for _, e := range t.Events {
			np, err := remap(e.Proc)
			if err != nil {
				return nil, nil, err
			}
			e.Proc = np
			e.Start += vclock.Time(applied)
			e.End += vclock.Time(applied)
			merged.Events = append(merged.Events, e)
		}
	}
	merged.Meta.Labels[LabelHosts] = strings.Join(hostNames, ",")

	// Labels every host agrees on (e.g. experiment ids attached with
	// rlscope-prof -label on each machine) survive into the merged trace;
	// host-varying labels are dropped rather than guessed at.
	for k, v := range hosts[0].Meta.Labels {
		shared := true
		for _, t := range hosts[1:] {
			if t.Meta.Labels[k] != v {
				shared = false
				break
			}
		}
		if shared && merged.Meta.Labels[k] == "" {
			merged.Meta.Labels[k] = v
		}
	}

	merged.Sort()
	if err := merged.Validate(); err != nil {
		return nil, nil, fmt.Errorf("multihost: merged trace invalid: %w", err)
	}
	stats.Procs = len(merged.Meta.Procs)
	stats.Events = len(merged.Events)
	stats.Messages = len(msgs)
	return merged, stats, nil
}

// Merge reads the host trace directories, aligns and merges them, and
// writes the result to dst as a v2-format directory in the writer's default
// chunk size, verifying the written bytes round-trip to the merged events
// before reporting the output digest.
// dst's previous trace files (if any) are overwritten, matching
// trace.NewWriter semantics. ctx is checked before each host directory is
// read and before dst is written: once it is done, Merge reads and writes
// nothing more and returns ctx's error.
func Merge(ctx context.Context, dst string, hostDirs []string, opts Options) (*Stats, error) {
	if len(hostDirs) < 2 {
		return nil, fmt.Errorf("multihost: need at least 2 host dirs, got %d", len(hostDirs))
	}
	inputs := make([]*trace.Trace, len(hostDirs))
	for i, dir := range hostDirs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := trace.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("multihost: reading host dir %q: %w", dir, err)
		}
		inputs[i] = t
	}
	merged, stats, err := MergeTraces(inputs, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	w, err := trace.NewWriter(dst, 0, trace.WithFormat(trace.FormatV2))
	if err != nil {
		return nil, err
	}
	w.Append(merged.Events...)
	if err := w.Close(merged.Meta); err != nil {
		return nil, err
	}

	// Round-trip verification: the directory must decode back to exactly
	// the events and processes just merged.
	back, err := trace.ReadDir(dst)
	if err != nil {
		return nil, fmt.Errorf("multihost: re-reading merged dir: %w", err)
	}
	if len(back.Events) != len(merged.Events) {
		return nil, fmt.Errorf("multihost: merged dir verification failed: wrote %d events, read back %d", len(merged.Events), len(back.Events))
	}
	back.Sort()
	for i := range merged.Events {
		if back.Events[i] != merged.Events[i] {
			return nil, fmt.Errorf("multihost: merged dir verification failed: event %d mismatch after round-trip", i)
		}
	}
	digest, err := trace.DirDigest(dst)
	if err != nil {
		return nil, err
	}
	stats.Digest = digest
	return stats, nil
}

// Manifest indexes a distributed run's per-host trace directories, so
// rlscope-merge (and scripts) can pick them up without globbing.
type Manifest struct {
	Workload string         `json:"workload"`
	Actors   int            `json:"actors"`
	Steps    int            `json:"steps"`
	Seed     int64          `json:"seed"`
	Hosts    []ManifestHost `json:"hosts"`
}

// ManifestHost is one host's entry in a Manifest.
type ManifestHost struct {
	Host   string `json:"host"`
	Dir    string `json:"dir"` // relative to the manifest's directory
	Events int    `json:"events"`
	// SkewNS is the injected ground-truth clock-origin skew. A real
	// cluster would not know this; it is recorded so experiments can
	// score rlscope-merge's trace-only offset recovery against truth.
	SkewNS int64 `json:"skew_ns"`
}

// WriteManifest writes m, indented, to dir/manifest.json.
func WriteManifest(dir string, m *Manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(buf, '\n'), 0o644)
}

// ManifestDirs resolves the host trace directories a manifest lists,
// relative to the manifest's location.
func ManifestDirs(path string) ([]string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("parsing manifest %s: %w", path, err)
	}
	dirs := make([]string, len(m.Hosts))
	for i, h := range m.Hosts {
		if h.Dir == "" {
			return nil, fmt.Errorf("manifest %s: host entry %d has no dir", path, i)
		}
		dirs[i] = filepath.Join(filepath.Dir(path), h.Dir)
	}
	return dirs, nil
}
