// Command rlscope-query answers fleet aggregation queries over a set of
// trace directories, offline — the same query DSL, the same exact
// per-group result merge, and byte-for-byte the same output document as
// rlscope-serve's POST /v1/query, so the two can be compared with cmp.
//
// Usage:
//
//	rlscope-query -group-by label.algo /traces/run1 /traces/run2 ...
//	rlscope-query -filter 'workload=ppo-*' -filter label.framework=tf \
//	    -group-by label.algo -metrics total_ns,gpu_ns,gpu_frac \
//	    -trace a=/traces/run1 -trace b=/traces/run2
//	rlscope-query -query '{"group_by":["label.algo"],"compare":{"baseline":{"label.algo":"dqn"}}}' \
//	    -store-reports /var/lib/rlscope/reports /traces/*
//
// Traces are given as positional directories or repeatable -trace NAME=DIR
// flags and registered exactly as rlscope-serve -trace registers them: a
// bare directory's id is its basename, every id follows the server's
// trace-id rule, and a directory whose basename is not a valid id — or two
// directories with one basename — is named with NAME=DIR. The query comes
// either assembled from the convenience flags (-filter/-group-by/-metrics)
// or verbatim as JSON (-query / -query-file); the two modes are mutually
// exclusive.
//
// With -store-reports DIR, per-trace result sets are read from (and on
// miss, written to) the same content-addressed report store rlscope-serve
// maintains — point the flag at a server's directory and a warm query runs
// zero analyses. Without it, every trace costs one Engine run.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rlscope-query", stderr)
	var (
		queryJSON = fs.String("query", "", "fleet query as a JSON document (mutually exclusive with -filter/-group-by/-metrics)")
		queryFile = fs.String("query-file", "", "read the JSON query from a file instead of -query")
		groupBy   = fs.String("group-by", "", "comma-separated group dimensions: id, workload, label.<key>")
		metrics   = fs.String("metrics", "", "comma-separated metrics (default total_ns,cpu_ns,gpu_ns,gpu_frac)")
		reportDir = fs.String("store-reports", "", "content-addressed report store directory shared with rlscope-serve; misses are computed and written back")
		workers   = fs.Int("workers", 0, "Engine worker budget per cold-trace analysis (0 = one per CPU)")
	)
	filter := map[string]string{}
	fs.Func("filter", "filter clause k=v with glob patterns, e.g. 'workload=ppo-*' (repeatable)", func(v string) error {
		k, val, ok := strings.Cut(v, "=")
		if !ok || k == "" {
			return fmt.Errorf("want -filter dimension=pattern, got %q", v)
		}
		filter[k] = val
		return nil
	})
	var traceArgs []string
	fs.Func("trace", "trace directory to query, as DIR or NAME=DIR (repeatable)", func(v string) error {
		traceArgs = append(traceArgs, v)
		return nil
	})
	return cli.Run(ctx, fs, args, func() error {
		traceArgs = append(traceArgs, fs.Args()...)
		if len(traceArgs) == 0 {
			return cli.Usagef("at least one trace directory (positional or -trace NAME=DIR) is required")
		}
		q, err := buildQuery(*queryJSON, *queryFile, filter, *groupBy, *metrics)
		if err != nil {
			return err
		}
		plan, err := fleet.Compile(q)
		if err != nil {
			return err
		}

		// The offline query path is the server's: a Server holding these
		// directories, and the report store rlscope-serve reads and writes
		// when -store-reports names one.
		cfg := serve.Config{MaxWorkers: *workers}
		if *reportDir != "" {
			if cfg.Reports, err = serve.NewDiskStore(*reportDir); err != nil {
				return err
			}
		}
		srv := serve.NewServer(cfg)
		defer srv.Close()
		for _, arg := range traceArgs {
			if _, err := srv.AddDirArg(arg); err != nil {
				return err
			}
		}
		res, err := srv.Query(ctx, plan)
		if err != nil {
			return err
		}
		_, err = stdout.Write(res.Body)
		return err
	})
}

// buildQuery assembles the fleet query from either the verbatim JSON
// (-query/-query-file) or the convenience flags; mixing the two modes is
// an error so there is never a question of which clause won.
func buildQuery(queryJSON, queryFile string, filter map[string]string, groupBy, metrics string) (fleet.Query, error) {
	var q fleet.Query
	raw := queryJSON
	if queryFile != "" {
		if raw != "" {
			return q, cli.Usagef("-query and -query-file are mutually exclusive")
		}
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return q, err
		}
		raw = string(data)
	}
	if raw != "" {
		if len(filter) > 0 || groupBy != "" || metrics != "" {
			return q, cli.Usagef("-query/-query-file and -filter/-group-by/-metrics are mutually exclusive")
		}
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			return q, fmt.Errorf("bad -query document: %w", err)
		}
		return q, nil
	}
	if len(filter) > 0 {
		q.Filter = filter
	}
	q.GroupBy = splitCSV(groupBy)
	q.Metrics = splitCSV(metrics)
	return q, nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
