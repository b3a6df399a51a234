package serve

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// Two warm routes and the tokens of one body each. Every body spacedBodies
// builds from them means the same request and answers the same cached
// document; only the white space between tokens tells them apart.
var bodyRoutes = []struct {
	name, target string
	tokens       []string
}{
	{"analyze", "/v1/traces/run-a/analyze", []string{`{`, `"workers"`, `:`, `1`, `,`, `"correction"`, `:`, `false`, `}`}},
	{"query", "/v1/query", []string{`{`, `"group_by"`, `:`, `[`, `"label.algo"`, `]`, `,`, `"metrics"`, `:`, `[`, `"total_ns"`, `]`, `}`}},
}

// spacedBodies returns n distinct bodies of one length: body i joins tokens
// with the gaps i's base-4 digits pick from four white space bytes.
func spacedBodies(tokens []string, n int) []string {
	const gaps = " \t\n\r"
	bodies := make([]string, n)
	for i := range bodies {
		var sb strings.Builder
		for j, tok := range tokens {
			if j > 0 {
				sb.WriteByte(gaps[(i>>(2*(j-1)))&3])
			}
			sb.WriteString(tok)
		}
		bodies[i] = sb.String()
	}
	return bodies
}

// bodyServer is a server over fleetDirs with every route of bodyRoutes warm,
// and a function that POSTs one body to a target through its handler,
// failing tb on any status but 200. Like warmAllocs, it counts the request's
// construction but not the parse of its URL.
func bodyServer(tb testing.TB) func(target *url.URL, body string) {
	s := newScenario(tb, Config{MaxWorkers: 1}).s
	fleetDirs(tb, s)
	h := s.Handler()
	for _, route := range bodyRoutes {
		mustOK(tb, h, "POST", route.target, strings.Join(route.tokens, "")) // no spacedBodies body
	}
	w := &discardWriter{header: http.Header{}}
	return func(target *url.URL, body string) {
		req := &http.Request{Method: "POST", URL: target, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Host: "t",
			Body: io.NopCloser(strings.NewReader(body))}
		clear(w.header)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("POST %s %q: status %d", target, body, w.status)
		}
	}
}

// TestDistinctBodyAllocs pins an analyze hit and a warm query whose body the
// memo has never seen: 1024 distinct bodies, each sent once, so every
// request is a memo miss that decodes (and, for a query, compiles, selects
// and keys) before its cache hit. The pins are what these requests cost
// with no memo in front of the decode: traffic that never repeats a body
// pays nothing for it in allocations.
func TestDistinctBodyAllocs(t *testing.T) {
	post := bodyServer(t)
	for _, route := range bodyRoutes {
		target, err := url.Parse(route.target)
		if err != nil {
			t.Fatal(err)
		}
		bodies := spacedBodies(route.tokens, 1024)
		max := map[string]float64{"analyze": 13, "query": 28}[route.name]
		i := 0
		// AllocsPerRun makes one run more than it counts: n+1 bodies in all.
		got := testing.AllocsPerRun(len(bodies)-1, func() {
			post(target, bodies[i])
			i++
		})
		if got > max {
			t.Errorf("%s, distinct bodies: %.0f allocs per request, want <= %.0f", route.name, got, max)
		} else {
			t.Logf("%s, distinct bodies: %.0f allocs per request (pin %.0f)", route.name, got, max)
		}
	}
}

// BenchmarkRequestBodies times an analyze hit and a warm query over two
// mixes: one body sent again and again (every request a memo hit), and 1024
// distinct bodies in turn (every request a memo miss: the set of bodies seen
// once is cleared long before a body comes round again).
func BenchmarkRequestBodies(b *testing.B) {
	post := bodyServer(b)
	for _, route := range bodyRoutes {
		target, err := url.Parse(route.target)
		if err != nil {
			b.Fatal(err)
		}
		bodies := spacedBodies(route.tokens, 1024)
		for _, mix := range []struct {
			name string
			n    int
		}{{"repeated", 1}, {"distinct", len(bodies)}} {
			b.Run(route.name+"/"+mix.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					post(target, bodies[i%mix.n])
				}
			})
		}
	}
}
