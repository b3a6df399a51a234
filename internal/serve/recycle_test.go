package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	rlscope "repro"
	"repro/internal/recycle"
	"repro/internal/report"
	"repro/internal/trace"
)

// TestLiveEpochAllocs pins what one epoch of a warm open trace costs through
// the handler: a 512-event append, then an analyze. The trace is the third
// of three identical streams on the server — the ones before it, sealed,
// released their window buffers and process states to the pool this one
// draws on. The frame is read into a body buffer off bodyBufs, decoded into
// a chunk buffer an earlier epoch drained to eventBufs, and applied into
// windows whose buffers came off the pool; a cut takes its window, result
// maps and all, from the process state an earlier stream left; and both
// responses are encoded by a kept encoder, indent buffer and all. What is
// left is per request — routing and the query string, the chunk's names, the
// sink's two files, the sidecar, the digest, the merged result and the
// document — and no event buffer: an epoch allocates less than its events
// would occupy. The digest frames each file's name and size
// into kept scratch, so folding the two files in allocates nothing. Every warm
// epoch costs the same count, one that cuts as one that does not: the
// measured sum is a multiple of runs, and fewer than runs stray allocations
// elsewhere in the process leave the floored average where it is.
func TestLiveEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector the standard library's own sync.Pools cost a warm epoch 99-107 allocations, not 89")
	}
	const per, warm, runs = 512, 16, 20
	s, _ := liveServer(t, Config{})
	h := s.Handler()
	frames := eventFrames(t, quickstartTrace(t, 900).Events, per)
	if len(frames) < warm+runs+1 {
		t.Fatalf("%d frames, want at least %d", len(frames), warm+runs+1)
	}
	frames = frames[:warm+runs+1]
	w := &discardWriter{header: http.Header{}}
	body := bytes.NewReader(nil)
	serve := func(u *url.URL, b []byte) {
		body.Reset(b)
		req := &http.Request{Method: "POST", URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{}, Host: "t", Body: io.NopCloser(body), ContentLength: int64(len(b))}
		clear(w.header)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("POST %s: status %d", u, w.status)
		}
	}
	var (
		seq     int
		appends []*url.URL
		analyze *url.URL
	)
	open := func(id string) {
		seq, appends = 0, nil
		for i := range frames {
			appends = append(appends, &url.URL{Path: "/v1/traces/" + id + "/chunks", RawQuery: fmt.Sprintf("seq=%d", i)})
		}
		analyze = &url.URL{Path: "/v1/traces/" + id + "/analyze"}
	}
	epoch := func() {
		serve(appends[seq], frames[seq])
		serve(analyze, []byte(`{}`))
		seq++
	}
	// Two identical streams before it, each sealed, settle the scratch the
	// way runs settle it (TestScratchSettlesAndOutlivesGC): the first meets
	// whatever earlier tests left in the pool, the second already the
	// buffers the same requests took.
	for _, id := range []string{"first", "second"} {
		open(id)
		for seq < len(frames) {
			epoch()
		}
		serve(&url.URL{Path: "/v1/traces/" + id + "/seal"}, nil)
	}
	open("third")
	for seq < warm {
		epoch()
	}
	// Collect first, so that no collection falls inside the measurement: a
	// sync.Pool an epoch draws on (the standard library's, behind fmt,
	// encoding/json and net/http) keeps what it holds through one collection
	// only, and what an epoch allocates would depend on when the collector
	// last ran.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, epoch)
	runtime.ReadMemStats(&after)
	perEpoch := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if limit := uint64(per * 40); perEpoch >= limit {
		t.Errorf("a warm epoch allocates %d B, want under %d: an event buffer is among them", perEpoch, limit)
	}
	if want := 89.0; allocs != want {
		t.Errorf("a warm epoch allocates %.0f times, want %.0f", allocs, want)
	}
}

// TestRecycledBuffersDoNotAlias: live traces stream interleaved on one
// server; each seals — handing its window buffers to the pool — while the
// others keep appending and analyzing, then opens a new trace that draws on
// what was handed back, and Engine runs draw on the same pool beside them. A
// buffer with two owners would show as a corrupted window: every sealed
// document must still be the offline Engine's over its directory, byte for
// byte, every seal digest the directory's, and every Engine run's document
// the same.
func TestRecycledBuffersDoNotAlias(t *testing.T) {
	s, store := liveServer(t, Config{MaxWorkers: 2})
	h := s.Handler()
	type stream struct {
		frames [][]byte
		meta   []byte
	}
	var streams []stream
	for i, tr := range []*trace.Trace{quickstartTrace(t, 300), twoProcTrace(t, 400), quickstartTrace(t, 120), twoProcTrace(t, 150)} {
		meta, err := json.Marshal(tr.Meta)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream{eventFrames(t, tr.Events, 128<<(i%3)), meta})
	}
	engineDir := quickstartDir(t, 200)
	engineDoc := offlineResultDoc(t, engineDir)

	type sealed struct{ id, digest, doc string }
	var (
		mu   sync.Mutex
		got  []sealed
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	for i, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				id := fmt.Sprintf("s%d-%d", i, round)
				for seq, frame := range st.frames {
					if rec := doReq(t, h, "POST", fmt.Sprintf("/v1/traces/%s/chunks?seq=%d", id, seq), string(frame)); rec.Code != http.StatusOK {
						t.Errorf("%s: append %d: %d %s", id, seq, rec.Code, rec.Body)
						return
					}
					if seq%3 == 2 {
						if rec := doReq(t, h, "POST", "/v1/traces/"+id+"/analyze", `{}`); rec.Code != http.StatusOK {
							t.Errorf("%s: analyze: %d %s", id, rec.Code, rec.Body)
							return
						}
					}
				}
				rec := doReq(t, h, "POST", "/v1/traces/"+id+"/seal", string(st.meta))
				var sr SealResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusOK || err != nil {
					t.Errorf("%s: seal: %d %s", id, rec.Code, rec.Body)
					return
				}
				rec = doReq(t, h, "POST", "/v1/traces/"+id+"/analyze", `{}`)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: sealed analyze: %d %s", id, rec.Code, rec.Body)
					return
				}
				mu.Lock()
				got = append(got, sealed{id, sr.Digest, rec.Body.String()})
				mu.Unlock()
			}
		}()
	}
	engineRuns := 0
	var engineWG sync.WaitGroup
	engineWG.Add(1)
	go func() {
		defer engineWG.Done()
		eng := rlscope.NewEngine(rlscope.WithWorkers(2))
		for {
			select {
			case <-done:
				return
			default:
			}
			rep, err := eng.Analyze(context.Background(), rlscope.FromDir(engineDir))
			if err != nil {
				t.Errorf("engine run: %v", err)
				return
			}
			var doc bytes.Buffer
			if err := report.NewResultAnalysis(rep.Meta, rep.Results, rep.Corrected).Encode(&doc); err != nil || doc.String() != string(engineDoc) {
				t.Errorf("engine run %d beside the live traces diverges (err %v)", engineRuns, err)
				return
			}
			engineRuns++
		}
	}()
	wg.Wait()
	close(done)
	engineWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if want := 3 * len(streams); len(got) != want || engineRuns == 0 {
		t.Fatalf("%d traces sealed, want %d; %d engine runs", len(got), want, engineRuns)
	}
	for _, g := range got {
		dir := filepath.Join(store, g.id)
		digest, err := trace.DirDigest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if g.digest != digest {
			t.Errorf("%s: seal digest %.12s, directory digest %.12s", g.id, g.digest, digest)
		}
		if want := offlineResultDoc(t, dir); g.doc != string(want) {
			t.Errorf("%s: sealed document diverges from the offline engine's:\nserved:\n%s\noffline:\n%s", g.id, g.doc, want)
		}
	}
}

// takeAll empties s and returns what it held, the value put last first.
func takeAll[T any](s *recycle.Stack[T]) []T {
	var held []T
	for {
		v, ok := s.Get()
		if !ok {
			return held
		}
		held = append(held, v)
	}
}

// putAll is takeAll's converse: it puts held back in the order it came off.
func putAll[T any](s *recycle.Stack[T], held []T) {
	for i := len(held) - 1; i >= 0; i-- {
		s.Put(held[i])
	}
}

// arrayOf is the address of a buffer's backing array: the buffer's identity
// however it is resliced.
func arrayOf[T any](buf []T) *T { return &buf[:cap(buf)][0] }

// idleArrays lists the arrays of the buffers idle on bodyBufs and eventBufs,
// leaving both stacks as they were.
func idleArrays() (bodies []*byte, events map[*trace.Event]bool) {
	heldBodies, heldEvents := takeAll(&bodyBufs), takeAll(&eventBufs)
	defer putAll(&bodyBufs, heldBodies)
	defer putAll(&eventBufs, heldEvents)
	events = map[*trace.Event]bool{}
	for _, b := range heldBodies {
		bodies = append(bodies, arrayOf(b.b))
	}
	for _, buf := range heldEvents {
		events[arrayOf(buf)] = true
	}
	return bodies, events
}

// framesSink collects the frames a Writer delivers.
type framesSink struct{ frames [][]byte }

func (s *framesSink) AppendChunk(_ int, chunk []byte, _ *trace.ChunkIndex) error {
	s.frames = append(s.frames, bytes.Clone(chunk))
	return nil
}

func (s *framesSink) Seal(trace.Meta) error { return nil }

// TestIngestBuffersOutliveTrace: the buffers an append reads and decodes
// into belong to the process, not to a trace. Once one trace is sealed, the
// next trace's appends — its first, which creates it, included — read into
// the body buffer the sealed one left idle and decode into chunk buffers it
// left idle, and no buffer is added or lost: at the 512-event chunks of the
// epoch pin, and at the frames a default trace.Writer sends through
// client.Sink, so the caps are shown to admit them. An epoch hands the chunk
// buffers back with every slot cleared.
func TestIngestBuffersOutliveTrace(t *testing.T) {
	writer := &framesSink{}
	w := trace.NewSinkWriter(writer, 0)
	w.Append(quickstartTrace(t, 2600).Events...)
	if err := w.Close(trace.Meta{}); err != nil {
		t.Fatal(err)
	}
	if len(writer.frames) < 3 {
		t.Fatalf("a default Writer sent %d frames, want at least 3 to stream two after a sealed trace", len(writer.frames))
	}
	for _, c := range []struct {
		name   string
		frames [][]byte
	}{
		{"512 events", eventFrames(t, quickstartTrace(t, 200).Events, 512)},
		{"default Writer", writer.frames[:len(writer.frames)-1]}, // the last one is short
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _ := liveServer(t, Config{})
			h := s.Handler()
			appendFrames := func(id string, frames [][]byte) {
				for seq, frame := range frames {
					mustOK(t, h, "POST", fmt.Sprintf("/v1/traces/%s/chunks?seq=%d", id, seq), string(frame))
				}
			}
			appendFrames("sealed", c.frames)
			mustOK(t, h, "POST", "/v1/traces/sealed/seal", "")
			bodies, events := idleArrays()

			appendFrames("next", c.frames[:2])
			if after, _ := idleArrays(); !slices.Equal(after, bodies) {
				t.Fatalf("idle body buffers went from %v to %v: an append kept, dropped or allocated one", bodies, after)
			}
			lt := s.lookup("next").live
			if len(lt.pending) != 2 {
				t.Fatalf("%d chunks pending, want 2", len(lt.pending))
			}
			for i, buf := range lt.pending {
				if !events[arrayOf(buf)] {
					t.Errorf("append %d decoded into a new chunk buffer, not one the sealed trace left idle", i)
				}
			}
			mustOK(t, h, "POST", "/v1/traces/next/analyze", "{}")
			idle := takeAll(&eventBufs)
			defer putAll(&eventBufs, idle)
			for i, buf := range idle[:2] {
				for j, e := range buf[:cap(buf)] {
					if e != (trace.Event{}) {
						t.Fatalf("idle chunk buffer %d holds %+v in slot %d", i, e, j)
					}
				}
			}
		})
	}
}

// TestIngestBufferBounds: neither ingest stack holds more than its Max, a
// buffer over its cap is dropped rather than kept, and an idle chunk buffer
// holds no name, up to its capacity.
func TestIngestBufferBounds(t *testing.T) {
	bodies, events := takeAll(&bodyBufs), takeAll(&eventBufs)
	t.Cleanup(func() {
		takeAll(&bodyBufs)
		takeAll(&eventBufs)
		putAll(&bodyBufs, bodies)
		putAll(&eventBufs, events)
	})

	for i := 0; i < 2*bodyBufs.Max; i++ {
		releaseBody(&bodyBuf{b: make([]byte, 10, 64)})
	}
	if n := len(takeAll(&bodyBufs)); n != bodyBufs.Max {
		t.Fatalf("%d body buffers idle, want the bound %d", n, bodyBufs.Max)
	}
	releaseBody(&bodyBuf{b: make([]byte, 0, keptBodyBytes+1)})
	if _, ok := bodyBufs.Get(); ok {
		t.Fatalf("a body buffer over %d bytes was kept", keptBodyBytes)
	}

	named := make([]trace.Event, 3, 8)
	for i := range named[:cap(named)] {
		named[:cap(named)][i] = trace.Event{Kind: trace.KindCPU, Start: 1, End: 2, Name: "held"}
	}
	putEvents(named)
	for i := 1; i < 2*eventBufs.Max; i++ {
		putEvents(make([]trace.Event, 3, 8))
	}
	idle := takeAll(&eventBufs)
	if len(idle) != eventBufs.Max {
		t.Fatalf("%d chunk buffers idle, want the bound %d", len(idle), eventBufs.Max)
	}
	kept := idle[len(idle)-1]
	if arrayOf(kept) != arrayOf(named) || len(kept) != 0 {
		t.Fatal("the first chunk buffer put back is not the one at the bottom of the stack")
	}
	for j, e := range kept[:cap(kept)] {
		if e != (trace.Event{}) {
			t.Fatalf("idle chunk buffer holds %+v in slot %d", e, j)
		}
	}
	putEvents(make([]trace.Event, 0, maxEventBufEvents+1))
	if _, ok := eventBufs.Get(); ok {
		t.Fatalf("a chunk buffer with room for more than %d events was kept", maxEventBufEvents)
	}
}

// TestEncodeJSONServeDocuments: the documents this package encodes itself —
// a trace summary, an append response, an error envelope — come out of
// report.EncodeJSON's recycled encoders as a fresh encoder writes them,
// cold and warm, with strings that exercise every escaping rule.
func TestEncodeJSONServeDocuments(t *testing.T) {
	odd := []string{"<b>&amp;</b>", "line\u2028para\u2029", "tab\tnul\x00bell\x07", "bad\xff\xfeutf8"}
	docs := map[string]any{
		"summary": TraceSummary{
			TraceInfo: TraceInfo{ID: "t1", Digest: "ab", Workload: odd[0], Host: odd[1], Labels: map[string]string{odd[2]: odd[3]}, Chunks: 2, Events: 9, Procs: 1, State: StateOpen},
			Processes: []ProcSummary{{Proc: 0, Name: odd[3], Parent: -1, Events: 9, MinStart: 1, MaxEnd: 1 << 40}},
			Tree:      []*report.TreeNode{{Proc: 0, Name: odd[3]}},
			Phases:    odd,
		},
		"append":    AppendResponse{ID: "t1", Seq: 3, Chunks: 4, Digest: "cd", Duplicate: true},
		"error":     ErrorEnvelope{Error: ErrorBody{Code: ErrCodeBadChunk, Message: strings.Join(odd, " ")}},
		"no errors": ErrorEnvelope{},
	}
	for round := 0; round < 2; round++ {
		for name, doc := range docs {
			var got, want bytes.Buffer
			if err := report.EncodeJSON(&got, doc); err != nil {
				t.Fatal(err)
			}
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(false)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("round %d, %s: EncodeJSON wrote\n%s\na fresh encoder\n%s", round, name, got.Bytes(), want.Bytes())
			}
		}
	}
}
