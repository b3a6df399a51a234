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
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

func main() {
	var (
		in  = flag.String("in", "", "source trace directory")
		out = flag.String("out", "", "destination directory (must not already contain trace files)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("both -in and -out are required"))
	}
	stats, err := trace.ConvertDir(*in, *out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("converted %d chunks (%d events) to %s\n", stats.Chunks, stats.Events, trace.FormatV2)
	fmt.Printf("chunk bytes: %d -> %d (ratio %.3f)\n", stats.SrcChunkBytes, stats.DstChunkBytes, stats.Ratio())
	fmt.Printf("verified: round-trip digest matches source digest %s\n", stats.SrcDigest)
	fmt.Printf("destination digest: %s\n", stats.DstDigest)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rlscope-convert:", err)
	os.Exit(1)
}
