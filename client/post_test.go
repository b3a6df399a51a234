package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestPostShortBodyIsError: a response that declares more bytes than it
// sends makes Analyze return an error, not the truncated document.
func TestPostShortBodyIsError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1000")
		io.WriteString(w, `{"workload": "cut`)
	}))
	t.Cleanup(ts.Close)
	doc, err := New(ts.URL, WithRetries(0)).Analyze(context.Background(), "t", serve.AnalyzeRequest{})
	if err == nil || doc != nil {
		t.Fatalf("a body cut short: document %q, error %v; want no document and an error", doc, err)
	}
}

// TestPostReadsUndeclaredBodyWhole: a chunked response over 4 KiB, which
// declares no Content-Length, is read whole.
func TestPostReadsUndeclaredBodyWhole(t *testing.T) {
	want := []byte(`{"workload": "` + strings.Repeat("w", 5<<10) + `"}` + "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for rest := want; len(rest) > 0; {
			n := min(len(rest), 700)
			w.Write(rest[:n])
			w.(http.Flusher).Flush() // sends the body chunked, with no Content-Length
			rest = rest[n:]
		}
	}))
	t.Cleanup(ts.Close)
	var declared int64
	c := New(ts.URL, WithHTTPClient(&http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err == nil {
			declared = resp.ContentLength
		}
		return resp, err
	})}))
	got, err := c.Analyze(context.Background(), "t", serve.AnalyzeRequest{})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes (err %v), want the %d sent", len(got), err, len(want))
	}
	if declared != -1 {
		t.Fatalf("the response declared %d bytes: the test means one that declares none", declared)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestPostPresizeIsCapped: a declared length is a hint, capped at
// maxPresizeBytes: a response declaring 256 MiB allocates no more than the
// cap, and what it does send is read whole.
func TestPostPresizeIsCapped(t *testing.T) {
	const declared = 256 << 20
	body := `{"workload": "small"}`
	c := New("http://rlscope.test", WithHTTPClient(&http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Length": {strconv.Itoa(declared)}},
			ContentLength: declared, Body: io.NopCloser(strings.NewReader(body)), Request: req}, nil
	})}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := c.Analyze(context.Background(), "t", serve.AnalyzeRequest{})
	runtime.ReadMemStats(&after)
	if err != nil || string(got) != body {
		t.Fatalf("got %q (err %v), want %q", got, err, body)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > maxPresizeBytes+16<<10 {
		t.Fatalf("a response declaring %d bytes allocated %d B, over the %d-byte cap", declared, d, maxPresizeBytes)
	}
}
