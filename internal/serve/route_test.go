package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// documentedCodes reads the error-code table of DESIGN.md §9: each code,
// with the statuses it answers with.
func documentedCodes(tb testing.TB) map[string]map[int]bool {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		tb.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "**Error envelope.**")
	if !ok {
		tb.Fatal("DESIGN.md has no **Error envelope.** paragraph")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	codes := map[string]map[int]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z_]+)` \\| ([0-9]{3}) \\|").FindAllStringSubmatch(table, -1) {
		status, _ := strconv.Atoi(m[2])
		if codes[m[1]] == nil {
			codes[m[1]] = map[int]bool{}
		}
		codes[m[1]][status] = true
	}
	if len(codes) == 0 {
		tb.Fatal("DESIGN.md §9's error-code table has no rows")
	}
	return codes
}

// checkAnswer fails unless rec is a 2xx, or the error envelope, nothing
// else in it, with a code DESIGN.md §9 documents for rec's status; a 405
// also names what is allowed. It returns the envelope's code, "" for a 2xx.
func checkAnswer(tb testing.TB, codes map[string]map[int]bool, what string, rec *httptest.ResponseRecorder) string {
	tb.Helper()
	if rec.Code >= 200 && rec.Code < 300 {
		return ""
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		tb.Errorf("%s: %d with Content-Type %q, want the JSON envelope", what, rec.Code, ct)
	}
	var env ErrorEnvelope
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		tb.Errorf("%s: %d body is not the error envelope: %v", what, rec.Code, err)
		return ""
	}
	if !codes[env.Error.Code][rec.Code] {
		tb.Errorf("%s: %d %q is not in DESIGN.md §9's code table", what, rec.Code, env.Error.Code)
	}
	if env.Error.Message == "" {
		tb.Errorf("%s: %d %q has no message", what, rec.Code, env.Error.Code)
	}
	if rec.Code == http.StatusMethodNotAllowed && rec.Header().Get("Allow") == "" {
		tb.Errorf("%s: 405 without Allow", what)
	}
	return env.Error.Code
}

// routeServer is a two-trace registry behind the handler: "qs", a
// registered directory, and "live", a trace streamed in one chunk and still
// open.
func routeServer(tb testing.TB, dir string, frame []byte) http.Handler {
	tb.Helper()
	h := newScenario(tb, Config{MaxWorkers: 1}).addDir("qs", dir).h
	if rec := doReq(tb, h, "POST", "/v1/traces/live/chunks?seq=0", string(frame)); rec.Code != http.StatusOK {
		tb.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	return h
}

// routeCases are the route shapes: every route, under each method a route
// can be asked with, and what each answers with an empty body. A method a
// case does not list is 405 with the case's Allow.
var routeCases = []struct {
	target string
	allow  string
	want   map[string]int
}{
	{"/healthz", "GET, HEAD", map[string]int{"GET": 200, "HEAD": 200}},
	{"/v1/traces", "GET, HEAD, POST", map[string]int{"GET": 200, "HEAD": 200, "POST": 400}},
	{"/v1/traces?label.algo=ppo", "GET, HEAD, POST", map[string]int{"GET": 200, "HEAD": 200, "POST": 400}},
	{"/v1/query", "POST", map[string]int{"POST": 400}},
	{"/v1/traces/qs/summary", "GET, HEAD", map[string]int{"GET": 200, "HEAD": 200}},
	{"/v1/traces/live/summary", "GET, HEAD", map[string]int{"GET": 200, "HEAD": 200}},
	{"/v1/traces/qs/analyze", "POST", map[string]int{"POST": 200}},
	{"/v1/traces/live/chunks?seq=1", "POST", map[string]int{"POST": 400}},
	{"/v1/traces/qs/seal", "POST", map[string]int{"POST": 409}},
}

// routeMisses are paths no route has, and paths whose segments are escaped:
// the router matches them as they arrive, and decodes an id as
// http.ServeMux's {id} did.
var routeMisses = []struct {
	method, target string
	status         int
	code           string
}{
	{"GET", "/v1/nope", 404, ErrCodeUnknownRoute},
	{"GET", "/", 404, ErrCodeUnknownRoute},
	{"GET", "//v1/traces", 404, ErrCodeUnknownRoute},
	{"GET", "/v1//traces", 404, ErrCodeUnknownRoute},
	{"GET", "/v1/traces/", 404, ErrCodeUnknownRoute},
	{"POST", "/v1/query/", 404, ErrCodeUnknownRoute},
	{"GET", "/healthz/", 404, ErrCodeUnknownRoute},
	{"GET", "/v1/traces/qs", 404, ErrCodeUnknownRoute},
	{"GET", "/v1/traces//summary", 404, ErrCodeUnknownRoute},
	{"GET", "/v1/traces/qs/summary/", 404, ErrCodeUnknownRoute},
	{"GET", "/v1/traces/qs/summary/x", 404, ErrCodeUnknownRoute},
	{"GET", "/debug/pprof/", 404, ErrCodeUnknownRoute},
	{"GET", "/debug/pprof/cmdline", 404, ErrCodeUnknownRoute},
	{"PUT", "/v1/traces/qs/analyze", 405, ErrCodeMethodNotAllowed},
	{"OPTIONS", "/healthz", 405, ErrCodeMethodNotAllowed},
	{"GET", "/v1/traces/q%73/summary", 200, ""},
	{"GET", "/v1/%74races/qs/summary", 200, ""},
	{"GET", "/v1/traces/a%2Fb/summary", 404, ErrCodeUnknownTrace},
	{"POST", "/v1/traces/a%2Fb/seal", 404, ErrCodeUnknownTrace},
	{"POST", "/v1/traces/a%2Fb/chunks?seq=0", 400, ErrCodeInvalidTraceID},
}

// TestRouteTable: every route under GET, HEAD, POST and DELETE, and every
// miss, answers a 2xx or the error envelope with a code DESIGN.md §9
// documents. A method a route does not take is 405 method_not_allowed with
// the route's Allow; a path no route has — unclean ones and the pprof paths
// the API handler never serves included — is 404 unknown_route; an escaped
// segment is matched as its unescaped bytes, and an escaped "/" stays
// inside its id.
func TestRouteTable(t *testing.T) {
	codes := documentedCodes(t)
	frames, _ := quickstartFrames(t, 10, 3)
	h := routeServer(t, quickstartDir(t, 20), frames[0])
	for _, rc := range routeCases {
		for _, method := range []string{"GET", "HEAD", "POST", "DELETE"} {
			what := method + " " + rc.target
			rec := doReq(t, h, method, rc.target, "")
			code := checkAnswer(t, codes, what, rec)
			want, ok := rc.want[method]
			if !ok {
				if rec.Code != http.StatusMethodNotAllowed || code != ErrCodeMethodNotAllowed || rec.Header().Get("Allow") != rc.allow {
					t.Errorf("%s: %d %q Allow %q, want 405 %q Allow %q", what, rec.Code, code, rec.Header().Get("Allow"), ErrCodeMethodNotAllowed, rc.allow)
				}
				continue
			}
			if rec.Code != want || code == ErrCodeUnknownRoute || code == ErrCodeMethodNotAllowed {
				t.Errorf("%s: %d %q, want %d from the route's handler", what, rec.Code, code, want)
			}
		}
	}
	for _, m := range routeMisses {
		what := m.method + " " + m.target
		body := ""
		if strings.Contains(m.target, "/chunks") {
			body = string(frames[0])
		}
		rec := doReq(t, h, m.method, m.target, body)
		if code := checkAnswer(t, codes, what, rec); rec.Code != m.status || code != m.code {
			t.Errorf("%s: %d %q, want %d %q", what, rec.Code, code, m.status, m.code)
		}
	}
}

// TestRouteCodesAreDocumented: the two route-miss codes, and the two 500s a
// client tells apart, a failed Engine run and a failed trace store, are rows
// of DESIGN.md §9's table, at the statuses the server answers them with.
func TestRouteCodesAreDocumented(t *testing.T) {
	codes := documentedCodes(t)
	for code, status := range map[string]int{
		ErrCodeUnknownRoute:     http.StatusNotFound,
		ErrCodeMethodNotAllowed: http.StatusMethodNotAllowed,
		ErrCodeAnalysisFailed:   http.StatusInternalServerError,
		ErrCodeStoreFailed:      http.StatusInternalServerError,
	} {
		if !codes[code][status] {
			t.Errorf("DESIGN.md §9 lacks %s %d: %v", code, status, codes)
		}
	}
}

// muxRoute answers what route, and what {id}, the http.ServeMux patterns
// the router replaced give u's path; redirect is true where ServeMux
// answered a redirect to the cleaned path instead, which the router does
// not do.
func muxRoute() func(u *url.URL) (rt route, id string, redirect bool) {
	var got route
	var gotID string
	mux := http.NewServeMux()
	for pattern, rt := range map[string]route{
		"/healthz":                healthzRoute,
		"/v1/traces":              tracesRoute,
		"/v1/query":               queryRoute,
		"/v1/traces/{id}/summary": summaryRoute,
		"/v1/traces/{id}/analyze": analyzeRoute,
		"/v1/traces/{id}/chunks":  chunksRoute,
		"/v1/traces/{id}/seal":    sealRoute,
	} {
		mux.HandleFunc(pattern, func(_ http.ResponseWriter, r *http.Request) { got, gotID = rt, r.PathValue("id") })
	}
	return func(u *url.URL) (route, string, bool) {
		got, gotID = noRoute, ""
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, &http.Request{Method: "GET", URL: u, Header: http.Header{}})
		return got, gotID, rec.Code == http.StatusMovedPermanently
	}
}

// FuzzRoute: any method, raw path and raw query through the handler, over
// a two-trace registry with one trace sealed and one open, answers without
// panicking, with a 2xx or the error envelope at a status DESIGN.md §9
// documents for its code. Wherever http.ServeMux did not redirect, the
// route and the id the router reads from the path are the ones the
// ServeMux patterns it replaced gave.
func FuzzRoute(f *testing.F) {
	for _, rc := range routeCases {
		p, q, _ := strings.Cut(rc.target, "?")
		for _, method := range []string{"GET", "HEAD", "POST", "DELETE"} {
			f.Add(method, p, q)
		}
	}
	for _, m := range routeMisses {
		p, q, _ := strings.Cut(m.target, "?")
		f.Add(m.method, p, q)
	}
	for _, seed := range [][3]string{
		{"GET", "/v1/traces/%2E%2E/summary", ""},
		{"GET", "/v1/traces/./summary", ""},
		{"POST", "/v1/traces/x/chunks", "seq=-1"},
		{"GET", "/v1/traces", "label.algo=%zz"},
		{"GET", "*", ""},
		{"", "/healthz", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	codes := documentedCodes(f)
	dir := quickstartDir(f, 20)
	frames, _ := quickstartFrames(f, 10, 3)
	oracle := muxRoute()
	f.Fuzz(func(t *testing.T, method, rawPath, rawQuery string) {
		target := rawPath
		if rawQuery != "" {
			target += "?" + rawQuery
		}
		u, err := url.ParseRequestURI(target)
		if err != nil {
			t.Skip()
		}
		if rt, id, redirect := oracle(u); !redirect {
			if gotRt, gotID := matchRoute(u); gotRt != rt || gotID != id {
				t.Errorf("%q: router reads route %d id %q, ServeMux read route %d id %q", target, gotRt, gotID, rt, id)
			}
		}
		h := routeServer(t, dir, frames[0])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, &http.Request{Method: method, URL: u, Header: http.Header{}, Body: http.NoBody, Host: "t"})
		checkAnswer(t, codes, fmt.Sprintf("%q %q", method, target), rec)
	})
}
