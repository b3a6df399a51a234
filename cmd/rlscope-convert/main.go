// Command rlscope-convert rewrites a trace directory in the columnar chunk
// format (v2, with dictionary interning). Chunk boundaries, sequence numbers,
// sidecar indexes, and run metadata are preserved, so analyses over the
// converted directory plan and stream exactly as they would over the
// original.
//
// Usage:
//
//	rlscope-convert -in /tmp/trace-v1 -out /tmp/trace-v2
//
// Every conversion is verified: the decoded events are re-encoded back into
// each chunk's original format and the round-trip digest must reproduce
// DirDigest of the source, proving no event was lost or altered. A failed
// check leaves the destination unsealed.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rlscope-convert", stderr)
	var (
		in  = fs.String("in", "", "source trace directory")
		out = fs.String("out", "", "destination directory (must not already contain trace files)")
	)
	return cli.Run(ctx, fs, args, func() error {
		if *in == "" || *out == "" {
			return cli.Usagef("both -in and -out are required")
		}
		// A signal during the conversion ends it before the next chunk.
		stats, err := trace.ConvertDir(ctx, *in, *out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "converted %d chunks (%d events) to %s\n", stats.Chunks, stats.Events, trace.FormatV2)
		fmt.Fprintf(stdout, "chunk bytes: %d -> %d (ratio %.3f)\n", stats.SrcChunkBytes, stats.DstChunkBytes, stats.Ratio())
		fmt.Fprintf(stdout, "verified: round-trip digest matches source digest %s\n", stats.SrcDigest)
		fmt.Fprintf(stdout, "destination digest: %s\n", stats.DstDigest)
		return nil
	})
}
