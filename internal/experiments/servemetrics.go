package experiments

// Metric bundles over the storage and serving layers: live ingest (ingest),
// the columnar chunk format (formatv2) and fleet queries (fleet). Each
// writes a real DDPG/Walker2D trace directory and drives the same front
// doors users do — the Engine, rlscope-serve's handler, the typed client.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/client"
	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// walkerRun replays the bundles' shared workload.
func walkerRun(steps int, seed int64, flags trace.FeatureFlags) (*trace.Trace, error) {
	stats, err := workloads.Run(workloads.Spec{
		Algo: "DDPG", Env: "Walker2D", Model: backend.Graph,
		TotalSteps: steps, Seed: seed,
	}, flags)
	if err != nil {
		return nil, err
	}
	return stats.Trace, nil
}

// writeTraceDir writes tr to dir through the chunked writer, in 64 KiB
// chunks so even a test-sized run spans several.
func writeTraceDir(dir string, tr *trace.Trace) error {
	w, err := trace.NewWriter(dir, 1<<16)
	if err != nil {
		return err
	}
	w.Append(tr.Events...)
	return w.Close(tr.Meta)
}

// engineResults is the offline oracle: one fresh single-worker Engine run
// over a trace directory.
func engineResults(ctx context.Context, dir string) (*analysis.Report, error) {
	return analysis.NewEngine(analysis.WithWorkers(1)).Analyze(ctx, analysis.FromDir(dir))
}

// resultDoc encodes the result-only document of an offline Engine run over
// dir — what `rlscope-analyze -json -result-only` prints.
func resultDoc(ctx context.Context, dir string) ([]byte, error) {
	rep, err := engineResults(ctx, dir)
	if err != nil {
		return nil, fmt.Errorf("analyzing %s: %w", dir, err)
	}
	var buf bytes.Buffer
	if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// formatv2Metrics checks PR 8's format-parity and compression claims on a
// real profiled workload: converting the trace directory to the columnar v2
// format (a conversion that verifies its round-trip digest) and analyzing it — and
// a directory mixing v1 and v2 chunks — must produce analysis documents
// byte-identical to the v1 original's, while the v2 chunks are measurably
// smaller at rest. Byte-equality and a deterministic workload make this a
// deterministic bundle.
func formatv2Metrics(opts Options) (map[string]float64, error) {
	tr, err := walkerRun(opts.steps(200), opts.Seed, trace.Full())
	if err != nil {
		return nil, fmt.Errorf("experiments: formatv2: %w", err)
	}
	base, err := os.MkdirTemp("", "rlscope-hyp-formatv2-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	v1dir, v2dir, mixdir := filepath.Join(base, "v1"), filepath.Join(base, "v2"), filepath.Join(base, "mixed")
	if err := writeTraceDir(v1dir, tr); err != nil {
		return nil, err
	}
	cstats, err := trace.ConvertDir(context.Background(), v1dir, v2dir)
	if err != nil {
		return nil, fmt.Errorf("experiments: formatv2: convert: %w", err)
	}

	// Mixed directory: the v1 original with every other chunk re-encoded
	// columnar in place — the per-chunk version sniffing must make the mix
	// indistinguishable from either pure directory.
	if err := os.CopyFS(mixdir, os.DirFS(v1dir)); err != nil {
		return nil, fmt.Errorf("experiments: formatv2: %w", err)
	}
	r, err := trace.OpenDir(mixdir)
	if err != nil {
		return nil, fmt.Errorf("experiments: formatv2: %w", err)
	}
	var events []trace.Event
	for i := 0; i < r.NumChunks(); i += 2 {
		if events, err = r.ReadChunk(i, events[:0]); err != nil {
			return nil, fmt.Errorf("experiments: formatv2: %w", err)
		}
		chunk, _, err := trace.EncodeEventsFormat(events, trace.FormatV2)
		if err != nil {
			return nil, fmt.Errorf("experiments: formatv2: %w", err)
		}
		if err := os.WriteFile(filepath.Join(mixdir, r.ChunkName(i)), chunk, 0o644); err != nil {
			return nil, fmt.Errorf("experiments: formatv2: %w", err)
		}
	}

	var docs [3][]byte
	for i, dir := range []string{v1dir, v2dir, mixdir} {
		if docs[i], err = resultDoc(opts.ctx(), dir); err != nil {
			return nil, fmt.Errorf("experiments: formatv2: %w", err)
		}
	}
	return map[string]float64{
		"v2_identical":     boolMetric(bytes.Equal(docs[0], docs[1])),
		"mixed_identical":  boolMetric(bytes.Equal(docs[0], docs[2])),
		"convert_verified": 1, // ConvertDir returned no error, so its round trip verified
		"size_ratio":       cstats.Ratio(),
	}, nil
}

// fleetMetrics checks the fleet-analytics claims end to end: a grouped
// POST /v1/query over several labeled runs must be byte-identical to the
// offline fleet plan executed with fresh Engine runs per trace (the
// rlscope-query path), and a server restarted over the same report-store
// directory must answer the same bytes without a single Engine run. On that
// restarted server the document cache is then held to its contract: the
// identical query again is a hit with identical bytes, and registering a
// fourth run makes the next answer a miss that equals the oracle over four
// traces. Byte-equality plus run counters and cache headers — a
// deterministic bundle.
func fleetMetrics(opts Options) (map[string]float64, error) {
	ctx := opts.ctx()
	base, err := os.MkdirTemp("", "rlscope-hyp-fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	runs := []struct {
		id, algo string
		extra    int
	}{
		{"run-a", "ppo", 0},
		{"run-b", "dqn", 40},
		{"run-c", "a2c", 80},
		{"run-d", "ppo", 120}, // registered only for the membership change
	}
	const initial = 3
	dirs := map[string]string{}
	var candidates []fleet.Trace
	for i, run := range runs {
		tr, err := walkerRun(opts.steps(200)+run.extra, opts.Seed+int64(i), trace.Uninstrumented())
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet: %w", err)
		}
		tr.Meta.Labels = map[string]string{"algo": run.algo}
		dirs[run.id] = filepath.Join(base, run.id)
		if err := writeTraceDir(dirs[run.id], tr); err != nil {
			return nil, err
		}
		candidates = append(candidates, fleet.Trace{ID: run.id, Meta: tr.Meta})
	}

	query := fleet.Query{
		GroupBy: []string{"label.algo"},
		Compare: &fleet.Compare{Baseline: map[string]string{"label.algo": "dqn"}},
	}
	// Offline oracle: the fleet plan executed with a fresh Engine run per
	// trace — exactly what rlscope-query does without a store directory.
	plan, err := fleet.Compile(query)
	if err != nil {
		return nil, fmt.Errorf("experiments: fleet: %w", err)
	}
	offline := func(candidates []fleet.Trace) ([]byte, error) {
		doc, err := plan.Execute(ctx, candidates, func(ctx context.Context, t fleet.Trace) (map[trace.ProcID]*overlap.Result, error) {
			rep, err := engineResults(ctx, dirs[t.ID])
			if err != nil {
				return nil, err
			}
			return rep.Results, nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet: offline execute: %w", err)
		}
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	offline3, err := offline(candidates[:initial])
	if err != nil {
		return nil, err
	}
	offline4, err := offline(candidates)
	if err != nil {
		return nil, err
	}

	reportDir := filepath.Join(base, "reports")
	newServer := func() (*serve.Server, error) {
		reports, err := serve.NewDiskStore(reportDir)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet: %w", err)
		}
		s := serve.NewServer(serve.Config{Reports: reports})
		for _, run := range runs[:initial] {
			if _, err := s.AddDir(run.id, dirs[run.id]); err != nil {
				s.Close()
				return nil, fmt.Errorf("experiments: fleet: %w", err)
			}
		}
		return s, nil
	}
	// viaClient asks the way users do, through the typed client over a
	// socket; ask posts straight to the handler, for the cache header the
	// client does not surface.
	viaClient := func(s *serve.Server) ([]byte, error) {
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body, err := client.New(ts.URL).Query(ctx, query)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet: query: %w", err)
		}
		return body, nil
	}
	ask := func(s *serve.Server) (body []byte, cache string, err error) {
		queryBody, err := json.Marshal(query)
		if err != nil {
			return nil, "", err
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequestWithContext(ctx, "POST", "/v1/query", bytes.NewReader(queryBody)))
		if rec.Code != http.StatusOK {
			return nil, "", fmt.Errorf("experiments: fleet: query: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), rec.Header().Get("X-RLScope-Cache"), nil
	}

	// Cold server: one Engine run per trace, result sets land in the store.
	coldSrv, err := newServer()
	if err != nil {
		return nil, err
	}
	cold, err := viaClient(coldSrv)
	coldRuns := coldSrv.EngineRuns()
	coldSrv.Close()
	if err != nil {
		return nil, err
	}

	// Restarted server over the same store directory: zero Engine runs.
	s, err := newServer()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	warm, err := viaClient(s)
	if err != nil {
		return nil, err
	}
	warmRuns := s.EngineRuns()

	again, againCache, err := ask(s)
	if err != nil {
		return nil, err
	}
	fourth := runs[initial]
	if _, err := s.AddDir(fourth.id, dirs[fourth.id]); err != nil {
		return nil, fmt.Errorf("experiments: fleet: %w", err)
	}
	grown, grownCache, err := ask(s)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"grouped_exact":           boolMetric(bytes.Equal(cold, offline3)),
		"warm_restart_identical":  boolMetric(bytes.Equal(warm, cold)),
		"cold_engine_runs":        float64(coldRuns),
		"warm_engine_runs":        float64(warmRuns),
		"warm_doc_hit":            boolMetric(againCache == "hit" && bytes.Equal(again, warm)),
		"membership_change_exact": boolMetric(grownCache == "miss" && bytes.Equal(grown, offline4)),
	}, nil
}

// Live-ingest streaming cadence: fixed, so that the only thing varying
// between ingestMetrics' two runs is the length of the trace.
const (
	ingestChunkEvents  = 1024
	ingestAnalyzeEvery = 4
)

// ingestRun is what one streamed, sealed and verified live trace reports.
type ingestRun struct {
	identical, digestMatch bool
	engineRuns             int64
	epochs                 int
	// maxEpochSwept is the largest number of events any single analyze
	// handed to the sweeper (the per-epoch EventsSwept delta).
	maxEpochSwept int
	// sweptPerEvent is the sealed trace's EventsSwept over the events
	// streamed: how many times the sweeper saw each event, on average.
	sweptPerEvent float64
}

// ingestMetrics checks the live path's two claims end to end over real
// HTTP. Determinism (PR 7): a trace streamed chunk-by-chunk through the
// typed client — with analyses interleaved mid-stream so the resident
// incremental state absorbs many epochs — seals to a directory whose digest
// matches the server's running digest, and the live analysis document is
// byte-identical to a fresh offline Engine run over that sealed directory.
// Cost: streamed again at twice the steps with the same chunk size and
// analyze cadence, the most expensive epoch costs no more — an epoch is
// O(epoch), not O(trace) — and in either run the sweeper sees each streamed
// event about once in all. Counter-based, so it holds under any scheduler: a
// deterministic bundle.
func ingestMetrics(opts Options) (map[string]float64, error) {
	steps := opts.steps(200)
	n, err := ingestStream(opts, steps)
	if err != nil {
		return nil, fmt.Errorf("experiments: ingest: %w", err)
	}
	n2, err := ingestStream(opts, 2*steps)
	if err != nil {
		return nil, fmt.Errorf("experiments: ingest: at 2n steps: %w", err)
	}
	return map[string]float64{
		"byte_identical":            boolMetric(n.identical && n2.identical),
		"digest_match":              boolMetric(n.digestMatch && n2.digestMatch),
		"engine_runs":               float64(n.engineRuns + n2.engineRuns),
		"multi_epoch":               boolMetric(n.epochs >= 2),
		"max_epoch_swept_n":         float64(n.maxEpochSwept),
		"max_epoch_swept_2n":        float64(n2.maxEpochSwept),
		"epoch_swept_growth_chunks": float64(n2.maxEpochSwept-n.maxEpochSwept) / ingestChunkEvents,
		"swept_per_event":           max(n.sweptPerEvent, n2.sweptPerEvent),
	}, nil
}

// ingestStream streams one walker run of the given length into a fresh
// server, analyzing every ingestAnalyzeEvery chunks, then seals it and
// compares the live document and digest with the offline ones.
func ingestStream(opts Options, steps int) (ingestRun, error) {
	var run ingestRun
	ctx := opts.ctx()
	tr, err := walkerRun(steps, opts.Seed, trace.Uninstrumented())
	if err != nil {
		return run, err
	}
	store, err := os.MkdirTemp("", "rlscope-hyp-ingest-")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(store)
	s := serve.NewServer(serve.Config{StoreDir: store})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)

	const id = "live"
	if _, err := c.Register(ctx, id); err != nil {
		return run, err
	}
	events := tr.Events
	for seq := 0; seq*ingestChunkEvents < len(events); seq++ {
		hi := min((seq+1)*ingestChunkEvents, len(events))
		chunk, ix, err := trace.EncodeEvents(events[seq*ingestChunkEvents : hi])
		if err != nil {
			return run, err
		}
		if _, err := c.AppendChunk(ctx, id, seq, chunk, ix); err != nil {
			return run, fmt.Errorf("append %d: %w", seq, err)
		}
		if (seq+1)%ingestAnalyzeEvery != 0 {
			continue
		}
		// Analyze mid-stream so the appends land as separate epochs.
		before, _ := s.IncrementalStats(id)
		if _, err := c.Analyze(ctx, id, serve.AnalyzeRequest{Workers: 1}); err != nil {
			return run, fmt.Errorf("mid-stream analyze: %w", err)
		}
		after, _ := s.IncrementalStats(id)
		run.maxEpochSwept = max(run.maxEpochSwept, after.EventsSwept-before.EventsSwept)
	}
	sealed, err := c.Seal(ctx, id, tr.Meta)
	if err != nil {
		return run, err
	}
	live, err := c.Analyze(ctx, id, serve.AnalyzeRequest{Workers: 1})
	if err != nil {
		return run, err
	}

	dir := filepath.Join(store, id)
	onDisk, err := trace.DirDigest(dir)
	if err != nil {
		return run, err
	}
	offline, err := resultDoc(ctx, dir)
	if err != nil {
		return run, fmt.Errorf("offline engine: %w", err)
	}
	incStats, _ := s.IncrementalStats(id)
	run.identical = bytes.Equal(live, offline)
	run.digestMatch = sealed.Digest == onDisk
	run.engineRuns = s.EngineRuns()
	run.epochs = incStats.Epochs
	run.sweptPerEvent = float64(incStats.EventsSwept) / float64(len(events))
	return run, nil
}
