package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	rlscope "repro"
	"repro/internal/analysis"
	"repro/internal/calib"
	"repro/internal/fleet"
	"repro/internal/overlap"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Layer probes: each calls one public function of one layer on the
// analyze fixtures, reusing buffers the way that layer's callers do, and
// reports a wall median — unnormalised and ungated. They say where an
// end-to-end change came from; they are not what a change is judged by.

const (
	probeReps    = 7
	probeWorkers = 4 // the "wN" of the analysis probes; the existing gate's anomaly is at 4
	probeBudget  = 256 << 10
)

// timed runs fn probeReps times and returns the median wall time in
// nanoseconds and the median bytes allocated.
func timed(fn func() error) (ns, allocBytes float64, err error) {
	allocs := newAllocCounter()
	var walls, bytes []float64
	for i := 0; i < probeReps; i++ {
		b0, _ := allocs.read()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		walls = append(walls, float64(time.Since(t0)))
		b1, _ := allocs.read()
		bytes = append(bytes, float64(b1-b0))
	}
	return median(walls), median(bytes), nil
}

// probe times fn and reports it as name in unit, dividing nanoseconds by
// per (events for ns/event, 1e6 for ms, 1e3 for µs).
func probe(out *layerSink, name, unit string, per float64, fn func() error) (allocBytes float64, err error) {
	ns, alloc, err := timed(fn)
	if err != nil {
		return 0, err
	}
	out.set(name, ns/per, unit)
	return alloc, nil
}

// spanLayer derives the serve and client figures from the spans the
// harness recorded around its own calls during the traced workload runs.
func spanLayer(sp *spans, out *layerSink) {
	ms := func(name, span string, p float64) { out.set(name, percentile(sp.durationsMS(span), p), "ms") }
	us := func(name, span string) { out.set(name, 1e3*percentile(sp.durationsMS(span), 0.5), "us") }
	ms("serve.append_ms_p50", "client.append", 0.50)
	ms("serve.append_ms_p95", "client.append", 0.95)
	ms("serve.live_analyze_ms_p50", "client.analyze_live", 0.50)
	ms("serve.live_analyze_ms_p95", "client.analyze_live", 0.95)
	ms("serve.seal_ms_p50", "client.seal", 0.50)
	us("serve.analyze_hit_us_p50", "serve.analyze")
	us("serve.summary_us_p50", "serve.summary")
	us("serve.list_us_p50", "serve.list")
	us("serve.query_warm_us_p50", "serve.query")
	ms("serve.add_dir_ms", "serve.add_dir", 0.50)
	ms("serve.analyze_miss_ms_p50", "serve.analyze_miss", 0.50)
}

// probeLayers runs every probe.
func probeLayers(e *env, out *layerSink) error {
	fx, err := newAnalyzeFixtures(e)
	if err != nil {
		return err
	}
	for _, p := range []func(*env, *analyzeFixtures, *layerSink) error{
		probeProfiler, probeTraceWrite, probeTraceRead, probeCalib,
		probeAnalysis, probeIncremental, probeOverlapReport, probeFleet, probeServe,
		attribute, // last: it sums what the others reported
	} {
		if err := p(e, fx, out); err != nil {
			return err
		}
	}
	return nil
}

// attribute compares, for `record` and `analyze`, the sum of the stage
// costs the probes above measured one at a time to a whole op over the same
// fixture: the share of an op's time the staged layers account for.
func attribute(e *env, fx *analyzeFixtures, out *layerSink) error {
	// ns reads a reported figure back in nanoseconds (per event, per
	// chunk or per call, as the metric is defined).
	ns := func(name string) float64 {
		m, ok := out.m[name]
		if !ok {
			panic("benchmark: attribute reads unreported metric " + name)
		}
		switch m.Unit {
		case "ms":
			return m.Value * 1e6
		case "us":
			return m.Value * 1e3
		}
		return m.Value
	}
	sched := newSchedule("record-gpu_heavy", e.seed, gpuHeavy, 2, e.scaled(recordSteps, 40))
	tr, err := sched.trace()
	if err != nil {
		return err
	}
	dir := e.dir("probe", "attr-record")
	opNS, _, err := timed(func() error { return sched.annotate().WriteTo(dir) })
	if err != nil {
		return err
	}
	out.set("harness.attributed_frac_record", float64(len(tr.Events))*
		(ns("profiler.annotate_ns_per_event")+ns("profiler.trace_build_ns_per_event")+ns("trace.writer_ns_per_event"))/opNS, "frac")

	ctx := context.Background()
	eng := rlscope.NewEngine()
	var doc bytes.Buffer
	opNS, _, err = timed(func() error {
		rep, err := eng.Analyze(ctx, rlscope.FromDir(fx.multiDir))
		if err != nil {
			return err
		}
		doc.Reset()
		return report.NewAnalysis(rep.Meta, rep.Results, rep.Stats, rep.Corrected).Encode(&doc)
	})
	if err != nil {
		return err
	}
	format, err := defaultFormat()
	if err != nil {
		return err
	}
	n := float64(len(fx.multi.Events))
	out.set("harness.attributed_frac_analyze", (ns("trace.open_dir_ms")+
		ns("trace.index_us_per_chunk")*ns("analysis.stream_chunks_decoded")+
		n*(ns("trace.decode_"+format.String()+"_ns_per_event")+ns("overlap.sweep_ns_per_event"))+
		ns("analysis.merge_result_us")*ns("analysis.stream_shards")+
		ns("report.render_analysis_us"))/opNS, "frac")
	return nil
}

func probeProfiler(e *env, _ *analyzeFixtures, out *layerSink) error {
	sched := newSchedule("record-gpu_heavy", e.seed, gpuHeavy, 2, e.scaled(recordSteps, 40))
	p := sched.annotate()
	tr, err := p.Trace()
	if err != nil {
		return err
	}
	n := float64(len(tr.Events))
	alloc, err := probe(out, "profiler.annotate_ns_per_event", "ns/event", n, func() error {
		sched.annotate()
		return nil
	})
	if err != nil {
		return err
	}
	out.set("profiler.annotate_alloc_bytes_per_event", alloc/n, "B/event")
	if _, err := probe(out, "profiler.trace_build_ns_per_event", "ns/event", n, func() error {
		_, err := p.Trace()
		return err
	}); err != nil {
		return err
	}
	return nil
}

// writerChunk is how many events the encode probes put in one frame —
// about what the Writer's default 1 MiB chunk holds.
const writerChunk = 32768

func probeTraceWrite(e *env, fx *analyzeFixtures, out *layerSink) error {
	events := fx.multi.Events
	n := float64(len(events))
	encode := func(enc func([]trace.Event) ([]byte, *trace.ChunkIndex, error), size *int) func() error {
		return func() error {
			*size = 0
			for lo := 0; lo < len(events); lo += writerChunk {
				frame, _, err := enc(events[lo:min(lo+writerChunk, len(events))])
				if err != nil {
					return err
				}
				*size += len(frame)
			}
			return nil
		}
	}
	format := func(f trace.Format) func([]trace.Event) ([]byte, *trace.ChunkIndex, error) {
		return func(ev []trace.Event) ([]byte, *trace.ChunkIndex, error) { return trace.EncodeEventsFormat(ev, f) }
	}
	var v1, v2, def int
	if _, err := probe(out, "trace.encode_v1_ns_per_event", "ns/event", n, encode(format(trace.FormatV1), &v1)); err != nil {
		return err
	}
	if _, err := probe(out, "trace.encode_v2_ns_per_event", "ns/event", n, encode(format(trace.FormatV2), &v2)); err != nil {
		return err
	}
	if _, err := probe(out, "trace.encode_default_ns_per_event", "ns/event", n, encode(trace.EncodeEvents, &def)); err != nil {
		return err
	}
	out.set("trace.bytes_per_event_v1", float64(v1)/n, "B/event")
	out.set("trace.bytes_per_event_v2", float64(v2)/n, "B/event")

	dir := e.dir("probe", "writer")
	if _, err := probe(out, "trace.writer_ns_per_event", "ns/event", n, func() error {
		return writeTrace(dir, fx.multi)
	}); err != nil {
		return err
	}

	// DirSink.Append over frames and sidecars encoded beforehand, as the
	// server's ingest path hands them over; Seal timed on its own.
	chunks, err := encodeChunks(events, 4096)
	if err != nil {
		return err
	}
	sidecars := make([][]byte, len(chunks))
	for i, c := range chunks {
		if sidecars[i], err = json.Marshal(c.index); err != nil {
			return err
		}
	}
	var appendNS, sealMS []float64
	for rep := 0; rep < probeReps; rep++ {
		sink, err := trace.NewDirSink(e.dir("probe", "sink", strconv.Itoa(rep)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		for seq, c := range chunks {
			if _, err := sink.Append(seq, c.frame, sidecars[seq]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := sink.Seal(fx.multi.Meta); err != nil {
			return err
		}
		appendNS = append(appendNS, float64(t1.Sub(t0)))
		sealMS = append(sealMS, float64(time.Since(t1))/1e6)
	}
	out.set("trace.sink_append_ns_per_event", median(appendNS)/n, "ns/event")
	out.set("trace.sink_seal_ms", median(sealMS), "ms")
	return nil
}

func probeTraceRead(e *env, fx *analyzeFixtures, out *layerSink) error {
	n := float64(len(fx.multi.Events))
	// The fixture directory is in the library's default format; write one
	// directory per format so both decoders see the same events.
	dirs := map[trace.Format]string{}
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		dirs[f] = e.dir("probe", "read-"+f.String())
		w, err := trace.NewWriter(dirs[f], 0, trace.WithFormat(f))
		if err != nil {
			return err
		}
		w.Append(fx.multi.Events...)
		if err := w.Close(fx.multi.Meta); err != nil {
			return err
		}
	}
	if _, err := probe(out, "trace.open_dir_ms", "ms", 1e6, func() error {
		_, err := trace.OpenDir(fx.multiDir)
		return err
	}); err != nil {
		return err
	}
	r, err := trace.OpenDir(fx.multiDir)
	if err != nil {
		return err
	}
	var ix trace.ChunkIndex
	if _, err := probe(out, "trace.index_us_per_chunk", "us", 1e3*float64(r.NumChunks()), func() error {
		for i := 0; i < r.NumChunks(); i++ {
			if err := r.IndexInto(i, &ix); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var buf []trace.Event
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		fr, err := trace.OpenDir(dirs[f])
		if err != nil {
			return err
		}
		if _, err := probe(out, "trace.decode_"+f.String()+"_ns_per_event", "ns/event", n, func() error {
			for i := 0; i < fr.NumChunks(); i++ {
				if buf, err = fr.ReadChunk(i, buf[:0]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	v2, err := trace.OpenDir(dirs[trace.FormatV2])
	if err != nil {
		return err
	}
	var sink vclock.Time
	if _, err := probe(out, "trace.columns_v2_ns_per_event", "ns/event", n, func() error {
		for i := 0; i < v2.NumChunks(); i++ {
			cc, _, err := v2.ReadColumns(i)
			if err != nil {
				return err
			}
			if err := cc.Times(func(_ int, start, end vclock.Time) bool { sink += end - start; return true }); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := probe(out, "trace.read_dir_ns_per_event", "ns/event", n, func() error {
		_, err := trace.ReadDir(fx.multiDir)
		return err
	}); err != nil {
		return err
	}
	if _, err := probe(out, "trace.dir_digest_ms", "ms", 1e6, func() error {
		_, err := trace.DirDigest(fx.multiDir)
		return err
	}); err != nil {
		return err
	}
	return nil
}

// defaultFormat asks the library which chunk format it writes when the
// caller does not say.
func defaultFormat() (trace.Format, error) {
	frame, _, err := trace.EncodeEvents([]trace.Event{{Kind: trace.KindCPU, Cat: trace.CatPython, End: 1, Name: "x"}})
	if err != nil {
		return 0, err
	}
	return trace.ChunkFormat(frame)
}

func probeCalib(_ *env, fx *analyzeFixtures, out *layerSink) error {
	n := float64(len(fx.single.Events))
	if _, err := probe(out, "calib.correct_ns_per_event", "ns/event", n, func() error {
		calib.Correct(fx.single, fx.cal)
		return nil
	}); err != nil {
		return err
	}
	r, err := trace.OpenDir(fx.singDir)
	if err != nil {
		return err
	}
	_, err = probe(out, "calib.stream_prepass_ns_per_event", "ns/event", n, func() error {
		_, err := calib.NewStreamCorrector(context.Background(), r, fx.cal, nil, nil)
		return err
	})
	return err
}

func probeAnalysis(_ *env, fx *analyzeFixtures, out *layerSink) error {
	tr := fx.multi
	n := float64(len(tr.Events))
	for _, v := range []struct {
		name    string
		workers int
	}{{"analysis.run_w1_ns_per_event", 1}, {"analysis.run_wN_ns_per_event", probeWorkers}} {
		if _, err := probe(out, v.name, "ns/event", n, func() error {
			analysis.Run(tr, analysis.Options{Workers: v.workers})
			return nil
		}); err != nil {
			return err
		}
	}
	r, err := trace.OpenDir(fx.multiDir)
	if err != nil {
		return err
	}
	var stats analysis.StreamStats
	stream := func(opts analysis.Options) func() error {
		return func() error {
			_, stats, err = analysis.RunStream(r, opts)
			return err
		}
	}
	if err := stream(analysis.Options{Workers: 1})(); err != nil { // warm the Reader
		return err
	}
	if _, err := probe(out, "analysis.stream_w1_ns_per_event", "ns/event", n, stream(analysis.Options{Workers: 1})); err != nil {
		return err
	}
	out.set("analysis.stream_shards", float64(stats.Shards), "count")
	out.set("analysis.stream_chunks_decoded", float64(stats.ChunksDecoded), "count")
	out.set("analysis.stream_peak_resident_bytes", float64(stats.PeakResidentBytes), "B")
	alloc, err := probe(out, "analysis.stream_wN_ns_per_event", "ns/event", n, stream(analysis.Options{Workers: probeWorkers}))
	if err != nil {
		return err
	}
	out.set("analysis.stream_alloc_bytes_per_event", alloc/n, "B/event")
	alloc, err = probe(out, "analysis.stream_budget_ns_per_event", "ns/event", n,
		stream(analysis.Options{Workers: probeWorkers, MaxResidentBytes: probeBudget}))
	if err != nil {
		return err
	}
	out.set("analysis.stream_budget_alloc_bytes_per_event", alloc/n, "B/event")
	out.set("analysis.stream_budget_peak_resident_bytes", float64(stats.PeakResidentBytes), "B")
	out.set("analysis.stream_budget_evictions", float64(stats.Evictions), "count")
	out.set("analysis.parallel_speedup",
		out.m["analysis.stream_w1_ns_per_event"].Value/out.m["analysis.stream_wN_ns_per_event"].Value, "x")
	return nil
}

func probeIncremental(_ *env, fx *analyzeFixtures, out *layerSink) error {
	const perChunk, resultsEvery = 4096, 8
	var chunks [][]trace.Event
	for lo := 0; lo < len(fx.multi.Events); lo += perChunk {
		chunks = append(chunks, fx.multi.Events[lo:min(lo+perChunk, len(fx.multi.Events))])
	}
	var applyNS, resultsMS, shardsPerEpoch []float64
	for rep := 0; rep < probeReps; rep++ {
		inc := analysis.NewIncremental()
		var apply time.Duration
		for i, c := range chunks {
			t0 := time.Now()
			inc.Apply([][]trace.Event{c})
			apply += time.Since(t0)
			if (i+1)%resultsEvery == 0 || i == len(chunks)-1 {
				t0 = time.Now()
				inc.Results(nil)
				resultsMS = append(resultsMS, float64(time.Since(t0))/1e6)
			}
		}
		applyNS = append(applyNS, float64(apply))
		s := inc.Stats()
		shardsPerEpoch = append(shardsPerEpoch, float64(s.Shards)/float64(s.Epochs))
	}
	out.set("analysis.incremental_apply_ns_per_event", median(applyNS)/float64(len(fx.multi.Events)), "ns/event")
	out.set("analysis.incremental_results_ms_p50", median(resultsMS), "ms")
	out.set("analysis.incremental_shards_per_epoch", median(shardsPerEpoch), "count")
	return nil
}

func probeOverlapReport(_ *env, fx *analyzeFixtures, out *layerSink) error {
	tr := fx.multi
	n := float64(len(tr.Events))
	var perProc [][]trace.Event
	for _, p := range tr.ProcIDs() {
		perProc = append(perProc, tr.ProcEvents(p))
	}
	sw := overlap.GetSweeper()
	defer overlap.PutSweeper(sw)
	alloc, err := probe(out, "overlap.sweep_ns_per_event", "ns/event", n, func() error {
		for _, events := range perProc {
			sw.Compute(events)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("overlap.sweep_alloc_bytes_per_event", alloc/n, "B/event")

	results := analysis.Run(tr, analysis.Options{Workers: 1})
	if _, err := probe(out, "analysis.merge_result_us", "us", 1e3*float64(len(results)), func() error {
		dst := &overlap.Result{ByKey: map[overlap.Key]vclock.Duration{}, Transitions: map[overlap.TransitionKey]int{}}
		for _, p := range tr.ProcIDs() {
			analysis.MergeResult(dst, results[p])
		}
		return nil
	}); err != nil {
		return err
	}

	var buf bytes.Buffer
	if _, err := probe(out, "report.render_analysis_us", "us", 1e3, func() error {
		buf.Reset()
		return report.NewAnalysis(tr.Meta, results, analysis.StreamStats{}, false).Encode(&buf)
	}); err != nil {
		return err
	}
	if _, err := probe(out, "report.resultset_encode_us", "us", 1e3, func() error {
		buf.Reset()
		return report.EncodeResultSet(&buf, results)
	}); err != nil {
		return err
	}
	encoded := bytes.Clone(buf.Bytes())
	_, err = probe(out, "report.resultset_decode_us", "us", 1e3, func() error {
		_, err := report.DecodeResultSet(encoded)
		return err
	})
	return err
}

func probeFleet(_ *env, fx *analyzeFixtures, out *layerSink) error {
	q := fleet.Query{
		GroupBy: []string{"label.algo"},
		Metrics: []string{fleet.MetricTotalNS, fleet.MetricGPUFrac, fleet.MetricTransitions},
		Compare: &fleet.Compare{Baseline: map[string]string{"label.algo": serveAlgos[0]}},
	}
	if _, err := probe(out, "fleet.compile_us", "us", 1e3, func() error {
		_, err := fleet.Compile(q)
		return err
	}); err != nil {
		return err
	}
	plan, err := fleet.Compile(q)
	if err != nil {
		return err
	}
	// Twelve candidates that all resolve, through an in-memory loader, to
	// the canonical fixture's results: what Execute itself costs.
	results := analysis.Run(fx.multi, analysis.Options{Workers: 1})
	var candidates []fleet.Trace
	for i := 0; i < serveTraces; i++ {
		candidates = append(candidates, fleet.Trace{
			ID:   fmt.Sprintf("t%02d", i),
			Meta: trace.Meta{Workload: "probe", Labels: map[string]string{"algo": serveAlgos[i%len(serveAlgos)]}},
		})
	}
	load := func(context.Context, fleet.Trace) (map[trace.ProcID]*overlap.Result, error) { return results, nil }
	_, err = probe(out, "fleet.execute_warm_us", "us", 1e3, func() error {
		_, err := plan.Execute(context.Background(), candidates, load)
		return err
	})
	return err
}

// probeServe measures what the serve workload's spans cannot: Engine runs
// a cold start costs, what the socket adds to a hit, and how the cache
// behaves when it is half the working set.
func probeServe(e *env, _ *analyzeFixtures, out *layerSink) error {
	fx, err := newServeFixtures(e, serve.Config{})
	if err != nil {
		return err
	}
	defer fx.srv.Close()
	if err := fx.warmUp(nil); err != nil {
		return err
	}
	out.set("serve.engine_runs", float64(fx.srv.EngineRuns()), "count")
	var workingSet int64
	for _, group := range fx.analyze {
		for _, r := range group {
			workingSet += int64(len(r.want))
		}
	}

	// The same hit through the handler and over a loopback connection.
	const hits = 400
	resp := &memResponse{header: http.Header{}}
	var inproc, socket []float64
	for i := 0; i < hits; i++ {
		t0 := time.Now()
		fx.serve(fx.analyze[0][0], resp)
		inproc = append(inproc, float64(time.Since(t0))/1e3)
	}
	host, err := newLoopback()
	if err != nil {
		return err
	}
	defer host.close()
	host.serve(fx.handler)
	for i := 0; i < hits; i++ {
		t0 := time.Now()
		if _, err := host.client.Analyze(context.Background(), "t00", serve.AnalyzeRequest{}); err != nil {
			return err
		}
		socket = append(socket, float64(time.Since(t0))/1e3)
	}
	out.set("client.http_overhead_us_p50", median(socket)-median(inproc), "us")

	// Replay plan 0 once against a cache half the analyze working set.
	small, err := newServeFixtures(&env{seed: e.seed, scale: e.scale, store: e.dir("probe", "small")},
		serve.Config{CacheBytes: max(workingSet/2, 1)})
	if err != nil {
		return err
	}
	defer small.srv.Close()
	var analyzed, hit int
	for _, r := range small.plan(0, rand.New(rand.NewSource(e.seed))) {
		small.serve(r, resp)
		if r.kind != "serve.analyze" {
			continue
		}
		analyzed++
		if resp.header.Get("X-RLScope-Cache") == "hit" {
			hit++
		}
	}
	out.set("serve.small_cache_hit_frac", float64(hit)/float64(max(analyzed, 1)), "frac")
	return nil
}
