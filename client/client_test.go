package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rlscope "repro"
	"repro/client"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// testTrace is a small deterministic two-process trace with a phase.
func testTrace() ([]trace.Event, trace.Meta) {
	var events []trace.Event
	events = append(events, trace.Event{
		Proc: 0, Kind: trace.KindPhase, Name: "training", Start: 0, End: 20_000,
	})
	for i := 0; i < 200; i++ {
		ts := vclock.Time(i * 100)
		events = append(events,
			trace.Event{Proc: 0, Kind: trace.KindCPU, Cat: trace.CatPython, Start: ts, End: ts + 60, Name: "step"},
			trace.Event{Proc: 1, Kind: trace.KindCPU, Cat: trace.CatSimulator, Start: ts, End: ts + 40, Name: "env"},
		)
	}
	meta := trace.Meta{Workload: "client-test", Config: trace.Full(), Procs: map[trace.ProcID]trace.ProcInfo{
		0: {Name: "trainer", Parent: -1}, 1: {Name: "sim", Parent: 0},
	}}
	return events, meta
}

// newLiveService spins up an ingest-enabled server over HTTP.
func newLiveService(t *testing.T) (*client.Client, string) {
	t.Helper()
	store := t.TempDir()
	s := serve.NewServer(serve.Config{StoreDir: store})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), store
}

// TestClientStreamRoundTrip streams a trace through the typed client's sink
// — the exact path `rlscope-prof -serve` uses — and checks the server ends
// up with a byte-identical trace directory and serves an analysis document
// byte-identical to the offline engine's result-only rendering.
func TestClientStreamRoundTrip(t *testing.T) {
	c, store := newLiveService(t)
	ctx := context.Background()
	events, meta := testTrace()

	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := c.Register(ctx, "run1")
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "run1" || info.State != serve.StateOpen {
		t.Fatalf("registered info %+v", info)
	}

	// Stream with a small chunk budget so multiple frames ship.
	w := trace.NewSinkWriter(c.Sink(ctx, "run1"), 1<<10)
	w.Append(events...)
	if err := w.Close(meta); err != nil {
		t.Fatal(err)
	}

	// The landed directory is byte-identical to a local write of the same
	// run (same chunk budget, same frames).
	local := t.TempDir()
	lw, err := trace.NewWriter(local, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	lw.Append(events...)
	if err := lw.Close(meta); err != nil {
		t.Fatal(err)
	}
	wantDigest, err := trace.DirDigest(local)
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, err := trace.DirDigest(filepath.Join(store, "run1"))
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != wantDigest {
		t.Fatalf("streamed dir digest %s, local %s", gotDigest, wantDigest)
	}

	traces, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].State != serve.StateSealed || traces[0].Workload != "client-test" {
		t.Fatalf("traces listing %+v", traces)
	}

	sum, err := c.Summary(ctx, "run1")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events != len(events) || len(sum.Processes) != 2 {
		t.Fatalf("summary %+v, want %d events over 2 procs", sum.TraceInfo, len(events))
	}

	body, err := c.Analyze(ctx, "run1", serve.AnalyzeRequest{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(ctx, rlscope.FromDir(filepath.Join(store, "run1")))
	if err != nil {
		t.Fatal(err)
	}
	var offline bytes.Buffer
	if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&offline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, offline.Bytes()) {
		t.Fatalf("client analysis diverges from offline engine:\nclient:\n%s\noffline:\n%s", body, offline.String())
	}
}

// TestClientAppendChunkProtocol exercises the typed append path directly:
// raw-frame delivery, idempotent retries, and structured API errors with
// the server's stable codes.
func TestClientAppendChunkProtocol(t *testing.T) {
	c, _ := newLiveService(t)
	ctx := context.Background()
	events, meta := testTrace()
	chunk, index, err := trace.EncodeEvents(events[:50])
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.AppendChunk(ctx, "run2", 0, chunk, index)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Chunks != 1 || resp.Duplicate {
		t.Fatalf("first append %+v", resp)
	}
	// Idempotent retry of the same frame.
	resp, err = c.AppendChunk(ctx, "run2", 0, chunk, index)
	if err != nil || !resp.Duplicate {
		t.Fatalf("retry: %+v, %v — want duplicate", resp, err)
	}
	// A frame the server cannot decode is bad_chunk.
	var apiErr *client.APIError
	if _, err := c.AppendChunk(ctx, "run2", 1, chunk[:len(chunk)/2], nil); !errors.As(err, &apiErr) || apiErr.Code != serve.ErrCodeBadChunk {
		t.Fatalf("truncated frame: %v, want APIError %s", err, serve.ErrCodeBadChunk)
	}
	// A gap maps to out_of_order_sequence.
	if _, err := c.AppendChunk(ctx, "run2", 7, chunk, nil); !errors.As(err, &apiErr) || apiErr.Code != serve.ErrCodeOutOfOrderSeq {
		t.Fatalf("gap: %v, want APIError %s", err, serve.ErrCodeOutOfOrderSeq)
	}
	// Appends after Seal are rejected.
	if _, err := c.Seal(ctx, "run2", meta); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendChunk(ctx, "run2", 1, chunk, nil); !errors.As(err, &apiErr) || apiErr.Code != serve.ErrCodeTraceSealed {
		t.Fatalf("post-seal append: %v, want APIError %s", err, serve.ErrCodeTraceSealed)
	}
	// Unknown trace ids surface the 404 code.
	if _, err := c.Summary(ctx, "ghost"); !errors.As(err, &apiErr) || apiErr.Code != serve.ErrCodeUnknownTrace || apiErr.Status != 404 {
		t.Fatalf("unknown trace: %v", err)
	}
	// Invalid ids are rejected before touching the store.
	if _, err := c.Register(ctx, "a..b"); !errors.As(err, &apiErr) || apiErr.Code != serve.ErrCodeInvalidTraceID {
		t.Fatalf("invalid id: %v", err)
	}
}

// resetFirst is a listener that resets the first `drop` connections it
// accepts — a server restart, or a proxy dropping an idle connection, as the
// client sees it.
type resetFirst struct {
	net.Listener
	drop atomic.Int32
}

func (l *resetFirst) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil || l.drop.Add(-1) < 0 {
			return conn, err
		}
		conn.(*net.TCPConn).SetLinger(0) // close sends RST, not FIN
		conn.Close()
	}
}

// TestClientRetriesAfterConnectionReset: a request whose first connection is
// reset succeeds on the retry, whatever its body — none (GET), JSON, or a
// chunk frame. Before do built each attempt's body itself, the retried GET
// died with a nil-pointer panic on a transport goroutine.
func TestClientRetriesAfterConnectionReset(t *testing.T) {
	s := serve.NewServer(serve.Config{StoreDir: t.TempDir()})
	t.Cleanup(s.Close)
	ts := httptest.NewUnstartedServer(s.Handler())
	flaky := &resetFirst{Listener: ts.Listener}
	ts.Listener = flaky
	ts.Start()
	t.Cleanup(ts.Close)
	// One connection per request, so every case below dials — and loses —
	// a fresh one.
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}))
	ctx := context.Background()
	events, _ := testTrace()
	chunk, index, err := trace.EncodeEvents(events[:50])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"GET", func() error { _, err := c.Health(ctx); return err }},
		{"postJSON", func() error { _, err := c.Register(ctx, "retry"); return err }},
		{"AppendChunk", func() error {
			resp, err := c.AppendChunk(ctx, "retry", 0, chunk, index)
			if err == nil && (resp.Chunks != 1 || resp.Duplicate) {
				err = fmt.Errorf("append landed as %+v", resp)
			}
			return err
		}},
	} {
		flaky.drop.Store(1)
		if err := tc.call(); err != nil {
			t.Fatalf("%s after a reset connection: %v", tc.name, err)
		}
		if left := flaky.drop.Load(); left >= 0 {
			t.Fatalf("%s: no connection was reset (drop = %d), the test exercised nothing", tc.name, left)
		}
	}
}

// smallWindow is a listener whose connections buffer little of what the
// peer sends, so a large request body stays with the client's transport
// until the handler reads it.
type smallWindow struct{ net.Listener }

func (l smallWindow) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		err = conn.(*net.TCPConn).SetReadBuffer(64 << 10)
	}
	return conn, err
}

// dialSmallWindow dials connections that buffer little of what they send.
func dialSmallWindow(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := new(net.Dialer).DialContext(ctx, network, addr)
	if err == nil {
		err = conn.(*net.TCPConn).SetWriteBuffer(64 << 10)
	}
	return conn, err
}

const conflictBody = `{"error": {"code": "chunk_conflict", "message": "answered early"}}`

// lateReader is a RoundTripper that answers 409 at once and reads the
// request body on a goroutine of its own a little later — after RoundTrip
// has returned, which the RoundTripper contract allows — handing on read
// the bytes it saw.
type lateReader struct{ read chan []byte }

func (l *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	go func() {
		time.Sleep(20 * time.Millisecond)
		b, _ := io.ReadAll(req.Body)
		req.Body.Close()
		l.read <- b
	}()
	return &http.Response{StatusCode: http.StatusConflict, Header: http.Header{"Content-Type": {"application/json"}},
		Body: io.NopCloser(strings.NewReader(conflictBody)), Request: req}, nil
}

// TestClientChunkReusableAfterAppend: a transport may go on reading a
// request body after the response is in — a server that answers before it
// has read the body, or a RoundTripper that reads the body on a goroutine of
// its own. The trace.Sink contract lets a trace.Writer recycling its frames
// refill a chunk as soon as the sink's AppendChunk returns, so Client.Sink
// must keep no hold on the chunk then: refilling it never races the
// transport and never changes what was sent. Run under -race, the early server shows a
// hold kept too long; the late RoundTripper shows it without -race too.
func TestClientChunkReusableAfterAppend(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Answer first, then stall before draining the body, so the
		// client has its response while its body is still being written.
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		fmt.Fprint(w, conflictBody)
		if err := rc.Flush(); err != nil {
			t.Error(err)
		}
		time.Sleep(20 * time.Millisecond)
		io.Copy(io.Discard, r.Body)
	}))
	ts.Listener = smallWindow{ts.Listener}
	ts.Start()
	t.Cleanup(ts.Close)
	late := &lateReader{read: make(chan []byte, 1)}
	for _, tc := range []struct {
		name string
		rt   http.RoundTripper
	}{
		{"server answers early", &http.Transport{DialContext: dialSmallWindow}},
		{"transport reads late", late},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tc.rt}))
			sink := c.Sink(context.Background(), "early")
			chunk := bytes.Repeat([]byte{1}, 4<<20)
			for i := 1; i <= 2; i++ {
				err := sink.AppendChunk(i, chunk, nil)
				var apiErr *client.APIError
				if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
					t.Fatalf("append %d: %v, want the 409", i, err)
				}
				for j := range chunk {
					chunk[j] = byte(i + 1)
				}
				if tc.rt == late {
					if sent := <-late.read; bytes.Count(sent, []byte{byte(i)}) != len(chunk) {
						t.Fatalf("append %d: the transport read %d bytes, %d of them as sent", i, len(sent), bytes.Count(sent, []byte{byte(i)}))
					}
				}
			}
		})
	}
}
