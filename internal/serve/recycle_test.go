package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
// released their window buffers to the store this one draws on. The frame is
// read into a body buffer off bodyBufs, decoded into a chunk buffer an
// earlier epoch drained to trace.EventBufs, and applied into windows whose
// buffers came off it too; and both responses are encoded by a kept encoder,
// indent buffer and all. Routing allocates nothing. What is left is per
// request — the query string, the chunk's names, the sink's two files, the
// sidecar, the digest, the merged result and the document — and no event
// buffer: an epoch allocates less than its events would occupy. The digest frames each file's
// name and size into kept scratch, so folding the two files in allocates
// nothing, and reading it is a Sum and its hex: the running hash is not
// copied. An epoch that cuts a window adds 9: the closed window, its kept
// result and that result's two maps, a header and a group each, as
// TestIncrementalEpochAllocs pins them, and 3 more because this stream's
// breakdown outgrows a map group's 8 entries and becomes a table (the
// table, its groups, its directory). A cut that doubles its process's list
// of closed windows adds 1 more. Each kind of epoch is pinned by its floored
// average, so the doublings, and fewer stray allocations elsewhere in the
// process than there are epochs of the kind, leave it where it is.
func TestLiveEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector the standard library's own sync.Pools cost a warm epoch more allocations than the pin")
	}
	const per, warm, runs = 512, 16, 60
	s := newScenario(t, Config{}).s
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
	// Two identical streams before it, each sealed, settle the store the
	// way runs settle it (TestScratchSettlesAndOutlivesGC): the first meets
	// whatever earlier tests left in it, the second already the
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
	// One P, and one epoch first, as testing.AllocsPerRun measures.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	epoch()
	lt := s.lookup("third").live
	windows := func() int {
		lt.amu.Lock()
		defer lt.amu.Unlock()
		return lt.inc.Stats().Windows
	}
	var before, after runtime.MemStats
	var bytes uint64
	var allocs, epochs [2]uint64 // by whether the epoch cut
	for range runs {
		n := windows()
		runtime.ReadMemStats(&before)
		epoch()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		cut := min(windows()-n, 1)
		allocs[cut] += after.Mallocs - before.Mallocs
		epochs[cut]++
	}
	if perEpoch, limit := bytes/runs, uint64(per*40); perEpoch >= limit {
		t.Errorf("a warm epoch allocates %d B, want under %d: an event buffer is among them", perEpoch, limit)
	}
	if epochs[1] < 4 {
		t.Fatalf("%d of %d epochs cut: the stream never split enough to pin a cut", epochs[1], runs)
	}
	const epochAllocs = 85
	if got, want := allocs[0]/epochs[0], uint64(epochAllocs); got != want {
		t.Errorf("a warm epoch allocates %d times, want %d", got, want)
	}
	if got, want := allocs[1]/epochs[1]-epochAllocs, uint64(9); got != want {
		t.Errorf("a warm cut adds %d allocations to its epoch, want %d", got, want)
	}
}

// TestRecycledBuffersDoNotAlias: live traces stream interleaved on one
// server; each seals — handing its window buffers to trace.EventBufs —
// while the others keep appending and analyzing, then opens a new trace that
// draws on what was handed back, and Engine runs draw on the same store
// beside them. A buffer with two owners would show as a corrupted window: every sealed
// document must still be the offline Engine's over its directory, byte for
// byte, every seal digest the directory's, and every Engine run's document
// the same.
func TestRecycledBuffersDoNotAlias(t *testing.T) {
	sc := newScenario(t, Config{MaxWorkers: 2})
	s, store := sc.s, sc.cfg.StoreDir
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
	engineDoc := offlineDoc(t, rlscope.FromDir(engineDir), docOpts{})

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
		if want := offlineDoc(t, rlscope.FromDir(dir), docOpts{}); g.doc != string(want) {
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

// idleEvents empties trace.EventBufs and returns what it held, largest
// first; putEvents back, one by one, leaves the store as it was, as long as
// they fit its bound.
func idleEvents() (bufs [][]trace.Event) {
	for buf := trace.EventBufs.Get(math.MaxInt, 0); buf != nil; buf = trace.EventBufs.Get(math.MaxInt, 0) {
		bufs = append(bufs, buf)
	}
	return bufs
}

// idleArrays lists the arrays of the buffers idle on bodyBufs and in
// trace.EventBufs, with the events the latter have room for, leaving both as
// they were.
func idleArrays() (bodies []*byte, events map[*trace.Event]int) {
	heldBodies, heldEvents := takeAll(&bodyBufs), idleEvents()
	defer putAll(&bodyBufs, heldBodies)
	events = map[*trace.Event]int{}
	for _, b := range heldBodies {
		bodies = append(bodies, arrayOf(b.b))
	}
	for _, buf := range heldEvents {
		events[arrayOf(buf)] = cap(buf)
		trace.EventBufs.Put(buf)
	}
	return bodies, events
}

// drainEpoch runs lt's next epoch without the sweep that would follow it in
// an analyze, so every chunk buffer the epoch hands back is still idle, and
// returns those buffers' arrays.
func drainEpoch(lt *liveTrace) []*trace.Event {
	lt.pmu.Lock()
	var drained []*trace.Event
	for _, buf := range lt.pending {
		drained = append(drained, arrayOf(buf))
	}
	lt.pmu.Unlock()
	lt.amu.Lock()
	lt.drain()
	lt.amu.Unlock()
	return drained
}

// checkCleared fails unless every one of arrays that is idle in
// trace.EventBufs holds the zero Event in every slot, and returns how many
// it checked.
func checkCleared(t *testing.T, arrays []*trace.Event) (checked int) {
	t.Helper()
	for _, buf := range idleEvents() {
		if slices.Contains(arrays, arrayOf(buf)) {
			checked++
			for j, e := range buf[:cap(buf)] {
				if e != (trace.Event{}) {
					t.Fatalf("an idle chunk buffer holds %+v in slot %d", e, j)
				}
			}
		}
		trace.EventBufs.Put(buf)
	}
	return checked
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
// client.Sink, so the store's bound is shown to admit them. An epoch hands
// the chunk buffers back with every slot cleared.
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
			s := newScenario(t, Config{}).s
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
				if events[arrayOf(buf)] != cap(buf) {
					t.Errorf("append %d decoded into a new chunk buffer, not one the sealed trace left idle", i)
				}
			}
			if n := checkCleared(t, drainEpoch(lt)); n != 2 {
				t.Fatalf("%d of the 2 chunk buffers the epoch handed back are idle", n)
			}
			mustOK(t, h, "POST", "/v1/traces/next/analyze", "{}")
		})
	}
}

// TestIdleCeilingAcrossOpenTraces: eight live traces stream into one server
// at once, each append of one followed by the next trace's, half of them
// analyzed after each round, and then half of the traces are sealed. However
// many traces are open, the idle event buffers stay within the one bound of
// trace.EventBufs, after every epoch and every seal; every sealed document
// is the offline Engine's over its directory; and every chunk buffer an
// epoch hands back that is still idle is cleared, followed by its array. At
// the 512-event frames of the epoch pin and at the frames a default
// trace.Writer sends.
func TestIdleCeilingAcrossOpenTraces(t *testing.T) {
	const traces = 8
	small, large := quickstartTrace(t, 300), quickstartTrace(t, 2600)
	writer := &framesSink{}
	w := trace.NewSinkWriter(writer, 0)
	w.Append(large.Events...)
	if err := w.Close(large.Meta); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		frames [][]byte
		meta   trace.Meta
	}{
		{"512 events", eventFrames(t, small.Events, 512), small.Meta},
		{"default Writer", writer.frames, large.Meta},
	} {
		t.Run(c.name, func(t *testing.T) {
			meta, err := json.Marshal(c.meta)
			if err != nil {
				t.Fatal(err)
			}
			sc := newScenario(t, Config{MaxWorkers: 1})
			s, store := sc.s, sc.cfg.StoreDir
			h := s.Handler()
			withinBound := func(when string) {
				t.Helper()
				held := 0
				for _, buf := range idleEvents() {
					held += cap(buf)
					trace.EventBufs.Put(buf)
				}
				if held > trace.EventBufs.Max {
					t.Fatalf("%s: %d events of idle capacity, over the bound %d", when, held, trace.EventBufs.Max)
				}
			}
			checked := 0
			for seq, frame := range c.frames {
				for i := 0; i < traces; i++ {
					id := fmt.Sprintf("t%d", i)
					mustOK(t, h, "POST", fmt.Sprintf("/v1/traces/%s/chunks?seq=%d", id, seq), string(frame))
					if (seq+i)%2 == 1 {
						checked += checkCleared(t, drainEpoch(s.lookup(id).live))
						withinBound(fmt.Sprintf("after an epoch of %s", id))
						mustOK(t, h, "POST", "/v1/traces/"+id+"/analyze", "{}")
					}
				}
			}
			if checked == 0 {
				t.Fatal("no chunk buffer an epoch handed back was idle to check")
			}
			for i := 0; i < traces; i += 2 {
				id := fmt.Sprintf("t%d", i)
				mustOK(t, h, "POST", "/v1/traces/"+id+"/seal", string(meta))
				withinBound("after the seal of " + id)
				doc := mustOK(t, h, "POST", "/v1/traces/"+id+"/analyze", "{}").Body.String()
				if want := offlineDoc(t, rlscope.FromDir(filepath.Join(store, id)), docOpts{}); doc != string(want) {
					t.Errorf("%s: the sealed document diverges from the offline Engine's", id)
				}
			}
		})
	}
}

// TestIngestBufferBounds: the body stack holds no more than its Max, a body
// buffer over its cap is dropped rather than kept, a chunk buffer goes back
// to trace.EventBufs cleared up to its capacity, so that it holds no name,
// and one with room for more than the store's bound is not kept.
func TestIngestBufferBounds(t *testing.T) {
	bodies, events := takeAll(&bodyBufs), idleEvents()
	t.Cleanup(func() {
		takeAll(&bodyBufs)
		idleEvents()
		putAll(&bodyBufs, bodies)
		for _, buf := range events {
			trace.EventBufs.Put(buf)
		}
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
	kept := trace.EventBufs.Get(0, 0)
	if arrayOf(kept) != arrayOf(named) || len(kept) != 0 {
		t.Fatal("the chunk buffer put back is not the one idle")
	}
	for j, e := range kept[:cap(kept)] {
		if e != (trace.Event{}) {
			t.Fatalf("idle chunk buffer holds %+v in slot %d", e, j)
		}
	}
	putEvents(make([]trace.Event, 0, trace.EventBufs.Max+1))
	if buf := trace.EventBufs.Get(0, 0); buf != nil {
		t.Fatalf("a chunk buffer with room for more than %d events was kept", trace.EventBufs.Max)
	}
}

// TestAppendKeepsTooSmallBuffer: an append borrows its decode buffer with
// room for the events its frame states, so an idle buffer too small for them
// stays idle, for a shorter chunk — on a trace's first append too, and
// whether the frame is v1 or v2.
func TestAppendKeepsTooSmallBuffer(t *testing.T) {
	held := idleEvents()
	t.Cleanup(func() {
		idleEvents()
		for _, buf := range held {
			trace.EventBufs.Put(buf)
		}
	})
	events := quickstartTrace(t, 40).Events[:100]
	srv := newScenario(t, Config{}).s
	h := srv.Handler()
	for _, f := range []trace.Format{trace.FormatV1, trace.FormatV2} {
		frame, _, err := trace.EncodeEventsFormat(events, f)
		if err != nil {
			t.Fatal(err)
		}
		idleEvents()
		small := make([]trace.Event, 0, 64)
		trace.EventBufs.Put(small)
		mustOK(t, h, "POST", fmt.Sprintf("/v1/traces/first-v%d/chunks?seq=0", f), string(frame))
		idle := idleEvents()
		if !slices.ContainsFunc(idle, func(buf []trace.Event) bool { return arrayOf(buf) == arrayOf(small) }) {
			t.Errorf("v%d: a first append of %d events left %d buffers idle, not the 64-event one", f, len(events), len(idle))
		}
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
