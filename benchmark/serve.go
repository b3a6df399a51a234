package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/trace"
)

// serveWorkload is the warm read side, driven in-process through the
// server's handler: router, report store, fleet merge and JSON listing.
// The Engine runs only during warm-up.
var serveWorkload = &workload{
	name:            "serve",
	why:             "warm reads, all cache hits: router, LRU store, fleet decode-merge-render and JSON listing work and the Engine does none, so an Engine-only change must not move it and a cache or handler change moves only it",
	roundsPerSecond: 4.3,
	warmRounds:      1,
	setup: func(e *env) (*instance, error) {
		fx, err := newServeFixtures(e, serve.Config{})
		if err != nil {
			return nil, err
		}
		return fx.instance(e)
	},
}

const (
	serveTraces     = 12
	servePlans      = 10
	serveTraceProcs = 3
	serveZipfS      = 1.2
	// One plan: 70 % analyze, 15 % summary, 10 % listing, 5 % fleet query.
	planAnalyze      = 350
	planSummary      = 75
	planList         = 50
	planQuery        = 25
	requestsPerPlan  = planAnalyze + planSummary + planList + planQuery
	planRotation     = 5 // how many keys plan p+1's hot set is shifted by
	serveStepsLo     = 150
	serveStepsGrowth = 60
)

var serveAlgos = []string{"ppo2", "ddpg", "sac", "a2c"}

// request is one distinct request of the serve mix and the body its
// warm-up answer had.
type request struct {
	kind   string // span name: serve.analyze, serve.summary, serve.list, serve.query
	method string
	url    *url.URL
	body   []byte
	want   []byte
}

// memResponse is the in-process ResponseWriter: headers, status and the
// body kept in a buffer the op reuses.
type memResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.header }
func (m *memResponse) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}
func (m *memResponse) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.body.Write(p)
}

func (m *memResponse) reset() {
	clear(m.header)
	m.status = 0
	m.body.Reset()
}

// serveFixtures is a server with the 12 labelled traces registered, and
// the distinct requests of the mix.
type serveFixtures struct {
	srv     *serve.Server
	handler http.Handler
	analyze [][]*request // [trace][procs filter]
	summary []*request
	list    []*request
	query   []*request
}

func newServeFixtures(e *env, cfg serve.Config) (*serveFixtures, error) {
	fx := &serveFixtures{srv: serve.NewServer(cfg)}
	fx.handler = fx.srv.Handler()
	for i := 0; i < serveTraces; i++ {
		algo := serveAlgos[i%len(serveAlgos)]
		sched := newSchedule(fmt.Sprintf("%s-run%02d", algo, i), e.seed+int64(i), balanced,
			serveTraceProcs, e.scaled(serveStepsLo+serveStepsGrowth*i, 20))
		sched.labels = map[string]string{"algo": algo, "tier": fmt.Sprintf("t%d", i/len(serveAlgos))}
		tr, err := sched.trace()
		if err != nil {
			return nil, err
		}
		dir := e.dir("serve", fmt.Sprintf("trace%02d", i))
		if err := writeTrace(dir, tr); err != nil {
			return nil, err
		}
		id := fmt.Sprintf("t%02d", i)
		h := e.sp.begin("serve.add_dir", 0)
		_, err = fx.srv.AddDir(id, dir)
		e.sp.end(h)
		if err != nil {
			return nil, err
		}

		var filters []*request
		for _, procs := range [][]trace.ProcID{nil, {0}, {1, 2}, {2}} {
			body, err := json.Marshal(serve.AnalyzeRequest{Procs: procs})
			if err != nil {
				return nil, err
			}
			filters = append(filters, newRequest("serve.analyze", http.MethodPost, "/v1/traces/"+id+"/analyze", body))
		}
		fx.analyze = append(fx.analyze, filters)
		fx.summary = append(fx.summary, newRequest("serve.summary", http.MethodGet, "/v1/traces/"+id+"/summary", nil))
	}
	for _, algo := range serveAlgos {
		fx.list = append(fx.list, newRequest("serve.list", http.MethodGet, "/v1/traces?label.algo="+algo, nil))
	}
	for _, q := range []fleet.Query{
		{GroupBy: []string{"label.algo"}},
		{GroupBy: []string{"label.algo"}, Metrics: []string{fleet.MetricTotalNS, fleet.MetricGPUFrac, fleet.MetricTransitions},
			Compare: &fleet.Compare{Baseline: map[string]string{"label.algo": serveAlgos[0]}}},
		{Filter: map[string]string{"label.tier": "t0"}, GroupBy: []string{"label.algo"}},
	} {
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		fx.query = append(fx.query, newRequest("serve.query", http.MethodPost, "/v1/query", body))
	}
	return fx, nil
}

func newRequest(kind, method, target string, body []byte) *request {
	u, err := url.Parse(target)
	if err != nil {
		panic(err) // targets are literals of this file
	}
	return &request{kind: kind, method: method, url: u, body: body}
}

// each visits every distinct request of the mix.
func (fx *serveFixtures) each(fn func(*request) error) error {
	for _, group := range append([][]*request{fx.summary, fx.list, fx.query}, fx.analyze...) {
		for _, r := range group {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// serve answers r through the handler into resp.
func (fx *serveFixtures) serve(r *request, resp *memResponse) {
	req := &http.Request{
		Method: r.method, URL: r.url, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Host: "bench", RequestURI: r.url.RequestURI(),
		Body: http.NoBody,
	}
	if r.body != nil {
		req.Body = nopCloser{bytes.NewReader(r.body)}
		req.ContentLength = int64(len(r.body))
		req.Header.Set("Content-Type", "application/json")
	}
	resp.reset()
	fx.handler.ServeHTTP(resp, req)
}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

// warmUp sends every distinct request once — the only Engine runs of the
// workload — and keeps each body as that request's reference.
func (fx *serveFixtures) warmUp(sp *spans) error {
	resp := &memResponse{header: http.Header{}}
	return fx.each(func(r *request) error {
		name := r.kind + "_cold"
		if r.kind == "serve.analyze" {
			name = "serve.analyze_miss"
		}
		h := sp.begin(name, 0)
		fx.serve(r, resp)
		sp.end(h)
		if resp.status != http.StatusOK {
			return fmt.Errorf("warm-up %s %s: status %d: %s", r.method, r.url, resp.status, resp.body.Bytes())
		}
		r.want = bytes.Clone(resp.body.Bytes())
		return nil
	})
}

// plan builds op p's request sequence. Its composition is fixed — 350
// analyze, 75 summary, 50 filtered listing, 25 fleet query, the analyze
// share spread over (trace, procs filter) by Zipf(1.2) weights with plan p
// rotating which keys are hot — so every seed runs the same mix and a run's
// figures do not depend on how a draw fell; the seed decides the order (and,
// through the fixtures, what the traces hold).
func (fx *serveFixtures) plan(p int, rng *rand.Rand) []*request {
	var keys []*request
	for _, filters := range fx.analyze {
		keys = append(keys, filters...)
	}
	var total float64
	for k := range keys {
		total += math.Pow(float64(k+1), -serveZipfS)
	}
	out := make([]*request, 0, requestsPerPlan)
	acc := 0.0
	for k := range keys {
		// Cumulative rounding: the counts sum to exactly planAnalyze.
		acc += math.Pow(float64(k+1), -serveZipfS) / total * planAnalyze
		for len(out) < int(acc+0.5) {
			out = append(out, keys[(k+planRotation*p)%len(keys)])
		}
	}
	for i := 0; i < planSummary; i++ {
		out = append(out, fx.summary[(i+p)%len(fx.summary)])
	}
	for i := 0; i < planList; i++ {
		out = append(out, fx.list[(i+p)%len(fx.list)])
	}
	for i := 0; i < planQuery; i++ {
		out = append(out, fx.query[(i+p)%len(fx.query)])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (fx *serveFixtures) instance(e *env) (*instance, error) {
	if err := fx.warmUp(e.sp); err != nil {
		fx.srv.Close()
		return nil, err
	}
	inst := &instance{close: fx.srv.Close}
	rng := rand.New(rand.NewSource(e.seed))
	// One response slot per plan position, reused by every op, so the
	// harness's own buffers stop growing after the warm-up round.
	resps := make([]*memResponse, requestsPerPlan)
	for i := range resps {
		resps[i] = &memResponse{header: http.Header{}}
	}
	runsBefore := int64(-1)
	for p := 0; p < servePlans; p++ {
		plan := fx.plan(p, rng)
		vr := &variant{
			name:  fmt.Sprintf("plan%d", p),
			units: int64(len(plan)),
			run: func(op int, sp *spans) error {
				runsBefore = fx.srv.EngineRuns()
				for i, r := range plan {
					h := sp.begin(r.kind, op)
					fx.serve(r, resps[i])
					sp.end(h)
				}
				return nil
			},
			check: func(op int) (int64, error) {
				var n int64
				for i, r := range plan {
					if resps[i].status != http.StatusOK {
						return 0, fmt.Errorf("request %d (%s %s): status %d", i, r.method, r.url, resps[i].status)
					}
					if !bytes.Equal(resps[i].body.Bytes(), r.want) {
						return 0, fmt.Errorf("request %d (%s %s): body differs from the warm-up answer", i, r.method, r.url)
					}
					n += int64(resps[i].body.Len())
				}
				if runs := fx.srv.EngineRuns(); runs != runsBefore {
					return 0, fmt.Errorf("warm op started %d Engine runs", runs-runsBefore)
				}
				return n, nil
			},
		}
		inst.variants = append(inst.variants, vr)
	}
	return inst, nil
}
