package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"

	rlscope "repro"
	"repro/client"
	"repro/internal/serve"
	"repro/internal/trace"
)

// liveWorkload is ingest plus incremental analysis over a real loopback
// socket, through the client package.
var liveWorkload = &workload{
	name:            "live",
	why:             "ingest over loopback: client, serve ingest, DirSink.Append digest and analysis.Incremental dominate; uses trace and analysis the opposite way from record/analyze, so a decode gain that costs appends shows here",
	roundsPerSecond: 7,
	warmRounds:      8,
	setup:           setupLive,
}

// countingTransport counts the body bytes of every request and response
// that crosses the client's connection.
type countingTransport struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// loopback is one listener on 127.0.0.1 and one client with a single
// keep-alive connection to it, in front of a handler that can be swapped
// while the connection stays up.
type loopback struct {
	httpSrv   *http.Server
	handler   atomic.Pointer[http.Handler]
	transport *http.Transport
	counter   *countingTransport
	client    *client.Client
}

func newLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{}
	l.serve(http.NotFoundHandler())
	l.httpSrv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*l.handler.Load()).ServeHTTP(w, r)
	})}
	go l.httpSrv.Serve(ln) // returns when close() closes the server
	l.transport = &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	l.counter = &countingTransport{next: l.transport}
	l.client = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: l.counter}), client.WithRetries(0))
	return l, nil
}

// serve puts h behind the listener.
func (l *loopback) serve(h http.Handler) { l.handler.Store(&h) }

func (l *loopback) close() {
	l.transport.CloseIdleConnections()
	l.httpSrv.Close() // closes the listener; Serve returns
}

// liveHost is a loopback whose serve.Server is replaced before every op:
// each op gets a fresh server over an empty store (so the store never
// grows) without paying for a new connection.
type liveHost struct {
	*loopback
	storeDir string
	current  *serve.Server
}

func newLiveHost(storeDir string) (*liveHost, error) {
	l, err := newLoopback()
	if err != nil {
		return nil, err
	}
	h := &liveHost{loopback: l, storeDir: storeDir}
	if err := h.reset(); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// reset swaps in a fresh serve.Server over an empty store.
func (h *liveHost) reset() error {
	if h.current != nil {
		h.current.Close()
	}
	if err := os.RemoveAll(h.storeDir); err != nil {
		return err
	}
	if err := os.MkdirAll(h.storeDir, 0o755); err != nil {
		return err
	}
	h.current = serve.NewServer(serve.Config{StoreDir: h.storeDir})
	h.serve(h.current.Handler())
	return nil
}

func (h *liveHost) close() {
	h.loopback.close()
	if h.current != nil {
		h.current.Close()
	}
}

// encodedChunk is one pre-encoded frame of the live fixture.
type encodedChunk struct {
	frame []byte
	index *trace.ChunkIndex
}

func encodeChunks(events []trace.Event, per int) ([]encodedChunk, error) {
	var out []encodedChunk
	for lo := 0; lo < len(events); lo += per {
		hi := min(lo+per, len(events))
		frame, ix, err := trace.EncodeEvents(events[lo:hi])
		if err != nil {
			return nil, err
		}
		out = append(out, encodedChunk{frame, ix})
	}
	return out, nil
}

func setupLive(e *env) (inst *instance, err error) {
	ctx := context.Background()
	tr, err := newSchedule("live", e.seed, balanced, 2, e.scaled(500, 40)).trace()
	if err != nil {
		return nil, err
	}
	host, err := newLiveHost(e.dir("live", "store"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			host.close()
		}
	}()
	inst = &instance{close: host.close}
	for _, v := range []struct {
		name         string
		chunkEvents  int
		analyzeEvery int
	}{
		{"fine", 512, 8},
		{"coarse", 4096, 2},
	} {
		chunks, err := encodeChunks(tr.Events, e.scaled(v.chunkEvents, 64))
		if err != nil {
			return nil, err
		}
		// Offline reference: the same frames landed by a local DirSink,
		// digested from disk and analysed by the Engine.
		refDir := e.dir("live", "ref-"+v.name)
		sink, err := trace.NewDirSink(refDir)
		if err != nil {
			return nil, err
		}
		for seq, c := range chunks {
			if err := sink.AppendChunk(seq, c.frame, c.index); err != nil {
				return nil, err
			}
		}
		if err := sink.Seal(tr.Meta); err != nil {
			return nil, err
		}
		wantDigest, err := trace.DirDigest(refDir)
		if err != nil {
			return nil, err
		}
		rep, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(ctx, rlscope.FromDir(refDir))
		if err != nil {
			return nil, err
		}
		wantDoc, err := resultDoc(rep)
		if err != nil {
			return nil, err
		}
		var (
			meta       = tr.Meta
			events     = len(tr.Events)
			every      = v.analyzeEvery
			sealDigest string
			finalDoc   []byte
			summary    *serve.TraceSummary
			io0        int64
		)
		vr := &variant{
			name:    v.name,
			units:   int64(events),
			prepare: func(op int) error { return host.reset() },
			run: func(op int, sp *spans) error {
				io0 = host.counter.bytes.Load()
				cl := host.client
				id := fmt.Sprintf("live-%d", op)
				for seq, c := range chunks {
					h := sp.begin("client.append", op)
					_, err := cl.AppendChunk(ctx, id, seq, c.frame, c.index)
					sp.end(h)
					if err != nil {
						return err
					}
					if (seq+1)%every == 0 {
						h := sp.begin("client.analyze_live", op)
						_, err := cl.Analyze(ctx, id, serve.AnalyzeRequest{})
						sp.end(h)
						if err != nil {
							return err
						}
					}
				}
				h := sp.begin("client.seal", op)
				sealed, err := cl.Seal(ctx, id, meta)
				sp.end(h)
				if err != nil {
					return err
				}
				sealDigest = sealed.Digest
				h = sp.begin("client.analyze_sealed", op)
				finalDoc, err = cl.Analyze(ctx, id, serve.AnalyzeRequest{})
				sp.end(h)
				if err != nil {
					return err
				}
				h = sp.begin("client.summary", op)
				summary, err = cl.Summary(ctx, id)
				sp.end(h)
				return err
			},
			check: func(op int) (int64, error) {
				if sealDigest != wantDigest {
					return 0, fmt.Errorf("seal digest %s, offline directory digests to %s", sealDigest, wantDigest)
				}
				if !bytes.Equal(finalDoc, wantDoc) {
					return 0, fmt.Errorf("final live document (%d B) differs from the offline reference (%d B)", len(finalDoc), len(wantDoc))
				}
				if summary.Events != events || summary.Chunks != len(chunks) {
					return 0, fmt.Errorf("summary reports %d events in %d chunks, sent %d in %d", summary.Events, summary.Chunks, events, len(chunks))
				}
				return host.counter.bytes.Load() - io0, nil
			},
		}
		inst.variants = append(inst.variants, vr)
	}
	return inst, nil
}
