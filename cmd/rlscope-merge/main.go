// Command rlscope-merge combines the per-host trace directories of one
// distributed run into a single causally-ordered trace directory the
// regular analysis tools (rlscope-analyze, rlscope-serve, rlscope-query)
// consume unchanged.
//
// Usage:
//
//	rlscope-merge -out /tmp/merged /tmp/dist/learner /tmp/dist/actor00 /tmp/dist/actor01
//	rlscope-merge -out /tmp/merged -manifest /tmp/dist/manifest.json
//
// Host clocks are aligned from the paired net.send/net.recv events the
// profiler records for every cross-host message; merges whose traffic
// bounds the inter-host clock offsets too loosely to order events are
// rejected (widen with -max-uncertainty only if you understand why).
// The output is a pure function of the input set: any permutation of the
// host directories produces byte-identical merged output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/multihost"
	"repro/internal/vclock"
)

func main() {
	var (
		out          = flag.String("out", "", "merged trace output directory (required)")
		manifestPath = flag.String("manifest", "", "manifest.json from rlscope-prof -distributed; its host dirs are merged (alternative to positional dirs)")
		maxUnc       = flag.Duration("max-uncertainty", 0, "largest acceptable clock-offset bracket half-width, e.g. 5ms (0 = default)")
		quiet        = flag.Bool("q", false, "suppress the per-host offset summary")
	)
	flag.Parse()
	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	dirs := flag.Args()
	if *manifestPath != "" {
		if len(dirs) > 0 {
			fatal(fmt.Errorf("pass either -manifest or positional host dirs, not both"))
		}
		var err error
		if dirs, err = manifestDirs(*manifestPath); err != nil {
			fatal(err)
		}
	}
	if len(dirs) < 2 {
		fatal(fmt.Errorf("need at least 2 host trace dirs (got %d); pass them as arguments or via -manifest", len(dirs)))
	}

	stats, err := multihost.Merge(*out, dirs, multihost.Options{MaxUncertainty: vclock.Duration(*maxUnc)})
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "rlscope-merge: aligned %d hosts from %d cross-host messages\n",
			len(stats.Hosts), stats.Messages)
		for _, h := range stats.Hosts {
			fmt.Fprintf(os.Stderr, "  %-12s shift %v\n", h, time.Duration(stats.Offsets[h]))
		}
	}
	fmt.Fprintf(os.Stderr, "rlscope-merge: wrote %d events / %d procs to %s (digest %s)\n",
		stats.Events, stats.Procs, *out, stats.Digest)
}

// manifestDirs resolves the host trace directories listed in a
// rlscope-prof -distributed manifest, relative to the manifest's location.
func manifestDirs(path string) ([]string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man struct {
		Hosts []struct {
			Dir string `json:"dir"`
		} `json:"hosts"`
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("parsing manifest %s: %w", path, err)
	}
	base := filepath.Dir(path)
	dirs := make([]string, len(man.Hosts))
	for i, h := range man.Hosts {
		if h.Dir == "" {
			return nil, fmt.Errorf("manifest %s: host entry %d has no dir", path, i)
		}
		dirs[i] = filepath.Join(base, h.Dir)
	}
	return dirs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlscope-merge:", err)
	os.Exit(1)
}
