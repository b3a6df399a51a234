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
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/multihost"
	"repro/internal/vclock"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rlscope-merge", stderr)
	var (
		out          = fs.String("out", "", "merged trace output directory (required)")
		manifestPath = fs.String("manifest", "", "manifest.json from rlscope-prof -distributed; its host dirs are merged (alternative to positional dirs)")
		maxUnc       = fs.Duration("max-uncertainty", 0, "largest acceptable clock-offset bracket half-width, e.g. 5ms (0 = default)")
		quiet        = fs.Bool("q", false, "suppress the per-host offset summary")
	)
	return cli.Run(ctx, fs, args, func() error {
		dirs := fs.Args()
		switch {
		case *out == "":
			return cli.Usagef("-out is required")
		case *manifestPath != "" && len(dirs) > 0:
			return cli.Usagef("pass either -manifest or positional host dirs, not both")
		case *manifestPath != "":
			var err error
			if dirs, err = multihost.ManifestDirs(*manifestPath); err != nil {
				return err
			}
		}
		if len(dirs) < 2 {
			return fmt.Errorf("need at least 2 host trace dirs (got %d); pass them as arguments or via -manifest", len(dirs))
		}
		// A signal during the merge ends it before the next host is read,
		// or before the merged trace is written.
		stats, err := multihost.Merge(ctx, *out, dirs, multihost.Options{MaxUncertainty: vclock.Duration(*maxUnc)})
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stderr, "rlscope-merge: aligned %d hosts from %d cross-host messages\n", len(stats.Hosts), stats.Messages)
			for _, h := range stats.Hosts {
				fmt.Fprintf(stderr, "  %-12s shift %v\n", h, time.Duration(stats.Offsets[h]))
			}
		}
		fmt.Fprintf(stderr, "rlscope-merge: wrote %d events / %d procs to %s (digest %s)\n", stats.Events, stats.Procs, *out, stats.Digest)
		return nil
	})
}
