package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/report"
	"repro/internal/trace"
)

// listingRow is the row GET /v1/traces should carry for id: the registered
// snapshot of a sealed entry, the fold so far of an open one.
func listingRow(tb testing.TB, s *Server, id string) TraceInfo {
	tb.Helper()
	entry := s.reg.Load().byID[id]
	if entry == nil {
		tb.Fatalf("trace %q is not registered", id)
	}
	if entry.live != nil {
		return entry.live.summary().TraceInfo
	}
	return entry.info
}

// rewriteDir writes the quickstart trace, labeled, into dir, replacing the
// trace files of any run there before (trace.NewWriter clears them).
func rewriteDir(tb testing.TB, dir string, steps int, labels map[string]string) string {
	tb.Helper()
	tr := quickstartTrace(tb, steps)
	tr.Meta.Labels = labels
	w, err := trace.NewWriter(dir, 4<<10)
	if err != nil {
		tb.Fatal(err)
	}
	w.Append(tr.Events...)
	if err := w.Close(tr.Meta); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// TestListingMatchesEncodeJSON is the listing's byte reference: whatever way
// the server builds GET /v1/traces, the body is report.EncodeJSON of
// {"traces": [...]} over the selected rows — no HTML escaping, U+2028
// escaped, registration order — for every mix of entry states.
func TestListingMatchesEncodeJSON(t *testing.T) {
	s := newScenario(t, Config{MaxWorkers: 1}).s
	h := s.Handler()
	check := func(name, target string, ids ...string) {
		t.Helper()
		rows := make([]TraceInfo, 0, len(ids))
		for _, id := range ids {
			rows = append(rows, listingRow(t, s, id))
		}
		var want bytes.Buffer
		if err := report.EncodeJSON(&want, struct {
			Traces []TraceInfo `json:"traces"`
		}{rows}); err != nil {
			t.Fatal(err)
		}
		rec := doReq(t, h, "GET", target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: GET %s: %d %s", name, target, rec.Code, rec.Body)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: GET %s differs from EncodeJSON:\ngot:\n%s\nwant:\n%s", name, target, got, want.Bytes())
		}
	}

	check("empty registry", "/v1/traces")
	check("empty registry, filtered", "/v1/traces?label.algo=ppo")

	odd := map[string]string{"algo": "ppo", "note": "<b> & \"quoted\" \u2028 naïve 日本 >"}
	if _, err := s.AddDir("odd", labeledDir(t, 12, odd)); err != nil {
		t.Fatal(err)
	}
	plainDir := quickstartDir(t, 16)
	if _, err := s.AddDir("plain", plainDir); err != nil {
		t.Fatal(err)
	}
	streamAndSeal(t, h, "streamed", map[string]string{"algo": "sac", "html": "a<b>&c"})
	chunks, _ := quickstartFrames(t, 10, 3)
	for seq := range 2 {
		rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/open/chunks?seq=%d", seq), string(chunks[seq]))
		if rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d %s", seq, rec.Code, rec.Body)
		}
	}

	check("mixed states", "/v1/traces", "odd", "plain", "streamed", "open")
	check("filter matching nothing", "/v1/traces?label.algo=none")
	check("label filter", "/v1/traces?label.algo=ppo", "odd")
	check("label glob", "/v1/traces?label.html=a%3Cb%3E*", "streamed")
	check("id selecting an open trace", "/v1/traces?id=open", "open")

	// An analyze miss over a rewritten directory swaps a fresh entry in: the
	// listing carries its row, new digest and labels included.
	old := listingRow(t, s, "plain").Digest
	rewriteDir(t, plainDir, 24, map[string]string{"algo": "ppo", "rewritten": "<yes>"})
	if rec := doReq(t, h, "POST", "/v1/traces/plain/analyze", `{"workers":1}`); rec.Code != http.StatusOK {
		t.Fatalf("analyze after rewrite: %d %s", rec.Code, rec.Body)
	}
	digest, err := trace.DirDigest(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := listingRow(t, s, "plain").Digest; got == old || got != digest {
		t.Fatalf("entry digest %s after rewrite: want the rewritten directory's %s", got, digest)
	}
	check("fresh entry after rewrite", "/v1/traces", "odd", "plain", "streamed", "open")
	check("fresh entry, filtered", "/v1/traces?label.algo=ppo", "odd", "plain")
}

// TestListingMalformedQuery: a listing query string that does not parse is
// 400 bad_request, never the registry minus the filters that failed to
// parse.
func TestListingMalformedQuery(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 1})
	sc.addFleet()
	if rows := sc.list("label.algo=dqn"); len(rows) != 1 {
		t.Fatalf("label.algo=dqn: %d rows, want 1", len(rows))
	}
	queries := []string{"label.algo=%zz", "label.algo=dqn;x=1", "label.algo=%zz&label.framework=tf",
		"label.framework=tf&label.algo=%zz", "label.algo=dqn&%zz"}
	for _, query := range queries {
		sc.list(query)
	}
	bad := ErrCodeBadRequest
	sc.answered("", bad, bad, bad, bad, bad)
}
