// Package client is the canonical Go consumer of the rlscope-serve v1 API:
// one typed client for every endpoint, shared by cmd/rlscope-prof's -serve
// streaming mode, the CI smoke step, and tests — so the HTTP surface has a
// single idiomatic binding instead of scattered hand-rolled net/http calls.
//
// The write path composes with the profiler's chunked trace writer through
// Sink: Client.Sink returns a trace.Sink that ships each flushed chunk
// frame as POST /v1/traces/{id}/chunks and finalizes the run with
// POST /v1/traces/{id}/seal, so
//
//	c := client.New("http://localhost:8080")
//	w := trace.NewSinkWriter(c.Sink(ctx, "run42"), 0)
//	w.Append(events...)
//	w.Close(meta)
//
// streams a live trace into the server's store with exactly the bytes a
// local trace.NewWriter would have produced. Append copies the events, so
// the caller may refill its slice between calls. Appends are idempotent on
// the server, so the sink retries transient transport failures safely.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/recycle"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Client talks to one rlscope-serve instance.
type Client struct {
	base string
	http *http.Client
	// retries is how many times transport-level failures of idempotent
	// requests are retried (API errors are never retried).
	retries int
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetries sets how many additional attempts transport failures get on
// idempotent requests (default 2; 0 disables).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// New returns a client for the service at base, e.g. "http://host:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), http: http.DefaultClient, retries: 2}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a structured /v1 error: the server's stable machine-readable
// code plus its human message, with the HTTP status attached. Callers
// branch on Code — the vocabulary is the serve.ErrCode* constants,
// tabulated in DESIGN.md §9.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rlscope-serve: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// decodeError turns a non-2xx response into an *APIError.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env serve.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return &APIError{Status: resp.StatusCode, Code: "unknown",
			Message: strings.TrimSpace(string(body))}
	}
	return &APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
}

// do performs one request, retrying transport failures (API errors are
// never retried). body is the whole request body, nil for none; every
// attempt reads it from the start. Every v1 request in this client is
// idempotent by protocol design — chunk appends carry sequence numbers the
// server deduplicates.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.http.Do(req)
		if err == nil {
			return resp, nil
		}
		if attempt >= c.retries || ctx.Err() != nil {
			return nil, err
		}
		// Brief linear backoff: transient transport failures (connection
		// reset, server restart) usually clear within a beat.
		select {
		case <-time.After(time.Duration(attempt+1) * 50 * time.Millisecond):
		case <-ctx.Done():
			return nil, err
		}
	}
}

// getJSON GETs path and decodes the response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// post POSTs body to path and returns the 200/201 response body verbatim.
func (c *Client) post(ctx context.Context, path, contentType string, body []byte) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodPost, path, contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, decodeError(resp)
	}
	// A declared length sizes the buffer, up to maxPresizeBytes, with room
	// for the read that meets EOF; ReadAll grows it only as bytes arrive, and
	// the transport reports a body shorter than declared as an error.
	size := int64(512) // io.ReadAll's first guess, for a body of unknown length
	if resp.ContentLength >= 0 {
		size = min(resp.ContentLength, maxPresizeBytes) + 1
	}
	data, err := recycle.ReadAll(make([]byte, 0, size), resp.Body)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// maxPresizeBytes caps what post allocates on the strength of a response's
// Content-Length before its bytes arrive.
const maxPresizeBytes = 64 << 10

// postJSON POSTs body (JSON-encoded) to path and returns the response body;
// out, when non-nil, also receives it decoded.
func (c *Client) postJSON(ctx context.Context, path string, body, out any) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	data, err = c.post(ctx, path, "application/json", data)
	if err != nil || out == nil {
		return data, err
	}
	return data, json.Unmarshal(data, out)
}

// Health returns GET /healthz as loosely-typed JSON.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	err := c.getJSON(ctx, "/healthz", &out)
	return out, err
}

// Traces lists every trace the server knows about (GET /v1/traces).
func (c *Client) Traces(ctx context.Context) ([]serve.TraceInfo, error) {
	var out struct {
		Traces []serve.TraceInfo `json:"traces"`
	}
	err := c.getJSON(ctx, "/v1/traces", &out)
	return out.Traces, err
}

// Register opens a live trace under id (POST /v1/traces). Registration is
// optional — the first AppendChunk also creates the trace — but an explicit
// Register surfaces id collisions before any chunk is shipped.
func (c *Client) Register(ctx context.Context, id string) (serve.TraceInfo, error) {
	var out serve.TraceInfo
	_, err := c.postJSON(ctx, "/v1/traces", serve.CreateTraceRequest{ID: id}, &out)
	return out, err
}

// Summary fetches GET /v1/traces/{id}/summary.
func (c *Client) Summary(ctx context.Context, id string) (*serve.TraceSummary, error) {
	var out serve.TraceSummary
	if err := c.getJSON(ctx, "/v1/traces/"+url.PathEscape(id)+"/summary", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analyze runs (or serves from cache) an analysis of trace id and returns
// the encoded report.Analysis document verbatim — the exact bytes the
// server caches, so byte-level comparisons against `rlscope-analyze -json`
// output work without a decode/re-encode round trip.
func (c *Client) Analyze(ctx context.Context, id string, req serve.AnalyzeRequest) ([]byte, error) {
	return c.postJSON(ctx, "/v1/traces/"+url.PathEscape(id)+"/analyze", req, nil)
}

// Query runs a fleet aggregation query (POST /v1/query) and returns the
// encoded report.QueryDoc verbatim — the exact bytes rlscope-query prints
// offline for the same traces and query, so cmp-level comparisons work.
func (c *Client) Query(ctx context.Context, q fleet.Query) ([]byte, error) {
	return c.postJSON(ctx, "/v1/query", q, nil)
}

// AppendChunk ships one encoded chunk frame as sequence number seq
// (POST /v1/traces/{id}/chunks, the frame as the raw body). index is unused
// — the server derives the sidecar from the frame — and stays in the
// signature because trace.Sink hands one over. Appends are idempotent:
// retrying a delivered sequence number with the same bytes is a no-op the
// response flags as Duplicate. The transport reads chunk as it is, and
// net/http may go on reading a request body after the call has returned (a
// server that answers before it has read the body), so a caller must not
// change chunk while the call is in flight, and one that refills its buffer
// once the call returns must pass a copy — as Sink does.
func (c *Client) AppendChunk(ctx context.Context, id string, seq int, chunk []byte, index *trace.ChunkIndex) (serve.AppendResponse, error) {
	var out serve.AppendResponse
	data, err := c.post(ctx, "/v1/traces/"+url.PathEscape(id)+"/chunks?seq="+strconv.Itoa(seq), "application/octet-stream", chunk)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(data, &out)
}

// Seal finalizes trace id with its run metadata
// (POST /v1/traces/{id}/seal). After a successful seal the server's digest
// for the trace equals trace.DirDigest over the stored directory.
func (c *Client) Seal(ctx context.Context, id string, meta trace.Meta) (serve.SealResponse, error) {
	var out serve.SealResponse
	_, err := c.postJSON(ctx, "/v1/traces/"+url.PathEscape(id)+"/seal", meta, &out)
	return out, err
}

// Sink returns a trace.Sink streaming into trace id on the server: the
// network counterpart of trace.DirSink. Plug it into trace.NewSinkWriter
// (or profiler.WriteToSink) and a workload profiles straight into shared
// infrastructure — same frames, same sequence numbers, same digest as a
// local write of the same run.
func (c *Client) Sink(ctx context.Context, id string) trace.Sink {
	return &netSink{ctx: ctx, c: c, id: id}
}

// netSink adapts Client to trace.Sink. The Writer delivering to it is
// single-goroutine, so no locking is needed beyond the server's own.
type netSink struct {
	ctx context.Context
	c   *Client
	id  string
}

// AppendChunk sends a copy of chunk: the trace.Sink contract lets the
// Writer refill chunk once AppendChunk returns, and the transport may still
// be reading its request body then.
func (ns *netSink) AppendChunk(seq int, chunk []byte, index *trace.ChunkIndex) error {
	_, err := ns.c.AppendChunk(ns.ctx, ns.id, seq, bytes.Clone(chunk), index)
	return err
}

func (ns *netSink) Seal(meta trace.Meta) error {
	_, err := ns.c.Seal(ns.ctx, ns.id, meta)
	return err
}
