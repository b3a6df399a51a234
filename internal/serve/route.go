package serve

import (
	"net/http"
	"net/url"
	"strings"
)

// Handler returns the service's HTTP handler: router, over the service's
// eight routes.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.router) }

// A route is one of the paths the service answers, as matchRoute names it.
type route uint8

const (
	noRoute      route = iota
	healthzRoute       // /healthz
	tracesRoute        // /v1/traces
	queryRoute         // /v1/query
	summaryRoute       // /v1/traces/{id}/summary
	analyzeRoute       // /v1/traces/{id}/analyze
	chunksRoute        // /v1/traces/{id}/chunks
	sealRoute          // /v1/traces/{id}/seal
)

// allow is each route's Allow header value, what a 405 on it answers with.
// The values are shared by every response, so never modified.
var allow = [...][]string{
	healthzRoute: {"GET, HEAD"},
	tracesRoute:  {"GET, HEAD, POST"},
	queryRoute:   {"POST"},
	summaryRoute: {"GET, HEAD"},
	analyzeRoute: {"POST"},
	chunksRoute:  {"POST"},
	sealRoute:    {"POST"},
}

// router is the service's one router: one case per route, a GET route
// answering HEAD too. A trace route's handler gets the {id} segment as an
// argument. A path no route has is 404 unknown_route, and a route's path
// under a method it does not take is 405 method_not_allowed with Allow, both
// in the error envelope. Paths are matched as they arrive: an unclean one (an
// empty segment, a trailing slash) is no route's, not a redirect.
func (s *Server) router(w http.ResponseWriter, r *http.Request) {
	rt, id := matchRoute(r.URL)
	get := r.Method == http.MethodGet || r.Method == http.MethodHead
	post := r.Method == http.MethodPost
	switch {
	case rt == analyzeRoute && post:
		s.handleAnalyze(w, r, id)
	case rt == summaryRoute && get:
		s.handleSummary(w, id)
	case rt == tracesRoute && get:
		s.handleTraces(w, r)
	case rt == queryRoute && post:
		s.handleQuery(w, r)
	case rt == healthzRoute && get:
		s.handleHealthz(w)
	case rt == tracesRoute && post:
		s.handleCreateTrace(w, r)
	case rt == chunksRoute && post:
		s.handleAppendChunk(w, r, id)
	case rt == sealRoute && post:
		s.handleSeal(w, r, id)
	case rt == noRoute:
		writeError(w, http.StatusNotFound, ErrCodeUnknownRoute, "no route for "+r.Method+" "+r.URL.Path)
	default:
		w.Header()["Allow"] = allow[rt]
		writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
			r.Method+" "+r.URL.Path+" is not allowed; allowed: "+allow[rt][0])
	}
}

// matchRoute returns the route u's path names and, for a trace route, its {id}
// segment, decoded as http.ServeMux decoded a {id}: u.Path is split when
// u.RawPath is empty; else the escaped path is split and each segment
// unescaped, so that an escaped "/" stays inside its segment.
func matchRoute(u *url.URL) (route, string) {
	p, escaped := u.Path, u.RawPath != ""
	if escaped {
		p = u.EscapedPath()
	}
	if p == "" || p[0] != '/' {
		return noRoute, ""
	}
	// At most /v1/traces/{id}/{op}: a path with more segments is no route's.
	var segs [4]string
	n, more := 0, true
	for p = p[1:]; n < len(segs) && more; n++ {
		segs[n], p, more = strings.Cut(p, "/")
		if escaped {
			if seg, err := url.PathUnescape(segs[n]); err == nil {
				segs[n] = seg
			}
		}
	}
	switch {
	case more:
		return noRoute, ""
	case n == 4 && segs[0] == "v1" && segs[1] == "traces" && segs[2] != "":
		switch segs[3] {
		case "summary":
			return summaryRoute, segs[2]
		case "analyze":
			return analyzeRoute, segs[2]
		case "chunks":
			return chunksRoute, segs[2]
		case "seal":
			return sealRoute, segs[2]
		}
	case n == 2 && segs[0] == "v1" && segs[1] == "traces":
		return tracesRoute, ""
	case n == 2 && segs[0] == "v1" && segs[1] == "query":
		return queryRoute, ""
	case n == 1 && segs[0] == "healthz":
		return healthzRoute, ""
	}
	return noRoute, ""
}
