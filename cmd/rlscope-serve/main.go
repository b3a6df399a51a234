// Command rlscope-serve exposes RL-Scope's offline analysis as a long-
// running HTTP/JSON service over a repository of trace directories — the
// path from one-shot CLI analysis to shared, multi-user infrastructure.
//
// Traces are registered at startup (-trace DIR or NAME=DIR, repeatable; a
// bare DIR's id is its basename, and every id follows live ingest's trace-id
// rule); each is addressed by a content digest of its chunk files, sidecar
// indexes, and metadata. A -store-reports directory that cannot be created
// stops the server before it listens.
// Analysis reports are cached in a bounded LRU keyed by (digest,
// canonicalized options), concurrent identical requests are deduplicated
// into a single Engine run, and a global worker budget (-max-workers)
// bounds the service's total analysis parallelism. Client disconnects
// cancel analyses nobody is waiting for; SIGINT/SIGTERM drains in-flight
// requests before exiting.
//
// With -store DIR, the service is also a write path: profilers stream
// sequence-numbered chunk frames into server-owned trace directories under
// DIR (create-on-first-write, idempotent retries). An open trace is analyzed
// incrementally — chunks are batched into epochs and only the (process,
// window) shards they touch are re-swept, O(chunk) not O(trace) — and
// sealing it registers it: from then on it is a -trace directory.
//
// Endpoints:
//
//	GET  /healthz                      service, cache, and budget health
//	GET  /v1/traces                    all traces (id, digest, size, state);
//	                                   ?id= ?workload= ?label.k= glob filters
//	POST /v1/query                     fleet aggregation query over sealed
//	                                   traces; body: the fleet query DSL
//	POST /v1/traces                    open a trace for ingest: {"id":"run42"}
//	GET  /v1/traces/{id}/summary       sidecar summary: processes, extents, fork tree
//	POST /v1/traces/{id}/analyze       run (or serve from cache) an analysis;
//	                                   body: {"workers":N, "max_resident_bytes":N,
//	                                          "correction":true, "procs":[...]}
//	POST /v1/traces/{id}/chunks?seq=N  append one chunk frame to an open trace
//	POST /v1/traces/{id}/seal          seal (register) it with its run metadata
//
// Errors share the envelope {"error":{"code","message"}} with the stable
// code vocabulary of DESIGN.md §9; a path no endpoint has is 404
// unknown_route, and an endpoint's path under another method 405
// method_not_allowed. A GET endpoint answers HEAD too. A JSON request body is one value of at
// most 1 MiB: bytes after the value are 400 and a larger body 413, both
// bad_request.
//
// The analyze response body is the stable report.Analysis document
// `rlscope-analyze -json` prints: result fields are byte-identical for
// the same trace and options at any worker count, and at workers:1 the
// whole body is (the scheduling-stats block varies with worker
// interleaving above that).
//
// With -debug-addr ADDR, net/http/pprof is served on a second listener at
// ADDR, under /debug/pprof/, for profiling the running service; the service's
// own listener never has a /debug/ route.
//
// Usage:
//
//	rlscope-serve -listen :8080 -trace quickstart=/tmp/trace [-trace NAME=DIR ...] \
//	    [-store /var/lib/rlscope/traces] [-store-reports /var/lib/rlscope/reports] \
//	    [-cache-bytes N] [-max-workers N] [-calibration cal.json] [-drain-timeout 10s] \
//	    [-debug-addr 127.0.0.1:6060]
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/calib"
	"repro/internal/cli"
	"repro/internal/serve"
)

// Connection timeouts. A client that never finishes its request headers, or
// parks a keep-alive connection, would otherwise hold it forever. There is
// deliberately no ReadTimeout or WriteTimeout: an append body may be 64 MiB
// over a slow link and an analysis may run for as long as its trace needs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rlscope-serve", stderr)
	var (
		listen     = fs.String("listen", ":8080", "address to serve on")
		cacheBytes = fs.Int64("cache-bytes", serve.DefaultCacheBytes, "report cache budget in bytes")
		maxWorkers = fs.Int("max-workers", 0, "global Engine worker budget shared across requests (0 = one per CPU)")
		calPath    = fs.String("calibration", "", "calibration JSON enabling {\"correction\":true} requests")
		drain      = fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain window for in-flight requests")
		storeDir   = fs.String("store", "", "trace store directory enabling live ingest (POST /v1/traces/{id}/chunks)")
		reportDir  = fs.String("store-reports", "", "persistent report store directory: cached reports and fleet result sets survive restarts and are shared by servers pointing at the same directory")
		debugAddr  = fs.String("debug-addr", "", "address of a second listener serving net/http/pprof under /debug/pprof/ (empty = off)")
	)
	var traceArgs []string
	fs.Func("trace", "trace directory to register, as DIR or NAME=DIR (repeatable)", func(v string) error {
		traceArgs = append(traceArgs, v)
		return nil
	})
	// ctx's end is the service's shutdown, not an interruption: a clean
	// drain exits 0 and an expired one 1.
	return cli.Run(context.Background(), fs, args, func() error {
		traceArgs = append(traceArgs, fs.Args()...)
		if len(traceArgs) == 0 && *storeDir == "" {
			return cli.Usagef("at least one -trace DIR (or NAME=DIR), or -store for live ingest, is required")
		}
		cfg := serve.Config{CacheBytes: *cacheBytes, MaxWorkers: *maxWorkers, StoreDir: *storeDir}
		var err error
		if *reportDir != "" {
			if cfg.Reports, err = serve.NewDiskStore(*reportDir); err != nil {
				return err
			}
		}
		if *calPath != "" {
			data, err := os.ReadFile(*calPath)
			if err != nil {
				return err
			}
			cal := &calib.Calibration{}
			if err := json.Unmarshal(data, cal); err != nil {
				return fmt.Errorf("decoding calibration %s: %w", *calPath, err)
			}
			cfg.Calibration = cal
		}

		srv := serve.NewServer(cfg)
		defer srv.Close()
		for _, arg := range traceArgs {
			info, err := srv.AddDirArg(arg)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "rlscope-serve: registered %q (%s): %d chunks, %d events, %d procs, digest %.12s…\n",
				info.ID, arg, info.Chunks, info.Events, info.Procs, info.Digest)
		}

		httpSrv := &http.Server{
			Addr:              *listen,
			Handler:           srv.Handler(),
			ReadHeaderTimeout: readHeaderTimeout,
			IdleTimeout:       idleTimeout,
		}
		errCh := make(chan error, 2)
		go func() { errCh <- httpSrv.ListenAndServe() }()
		fmt.Fprintf(stderr, "rlscope-serve: listening on %s\n", *listen)
		if *debugAddr != "" {
			debugSrv := &http.Server{
				Addr:              *debugAddr,
				Handler:           debugHandler(),
				ReadHeaderTimeout: readHeaderTimeout,
				IdleTimeout:       idleTimeout,
			}
			defer debugSrv.Close()
			go func() { errCh <- debugSrv.ListenAndServe() }()
			fmt.Fprintf(stderr, "rlscope-serve: pprof on %s/debug/pprof/\n", *debugAddr)
		}
		defer httpSrv.Close()
		select {
		case err := <-errCh:
			return err // a listener died on its own
		case <-ctx.Done():
		}

		// Graceful shutdown: stop accepting, let in-flight requests (and the
		// Engine runs they wait on) finish within the drain window, then
		// abort whatever is left by cancelling the server's base context.
		fmt.Fprintln(stderr, "rlscope-serve: draining in-flight requests")
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err = httpSrv.Shutdown(shCtx)
		srv.Close()
		if err != nil {
			return fmt.Errorf("drain window expired, aborted in-flight analyses: %v", err)
		}
		fmt.Fprintln(stderr, "rlscope-serve: bye")
		return nil
	})
}

// debugHandler is the -debug-addr listener's mux: net/http/pprof's handlers,
// and nothing else.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
