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
	"sync"
	"testing"

	rlscope "repro"
	"repro/internal/report"
	"repro/internal/trace"
)

// TestLiveEpochAllocs pins what one epoch of a warm open trace costs through
// the handler: a 512-event append, then an analyze. The trace is the third
// of three identical streams on the server — the ones before it, sealed,
// released their window buffers and process states to the pool this one
// draws on. The frame is read into the trace's recycled body buffer, decoded
// into a chunk buffer an earlier epoch drained, and applied into windows
// whose buffers came off the pool, and a cut takes its window, result maps
// and all, from the process state an earlier stream left, so what is left is
// per request — the sink's two files, the sidecar, the digest, the merged
// result and the document — and no event buffer: an epoch allocates less
// than its events would occupy. Every warm epoch costs the same count, one
// that cuts as one that does not: the measured sum is a multiple of runs,
// and fewer than runs stray allocations elsewhere in the process leave the
// floored average where it is.
func TestLiveEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// AllocsPerRun measures on one P, and a sync.Pool drops what it holds
	// when the P count changes: were the frame decoder's pooled name table
	// (internal/trace's v1DecPool) lost there, it would be allocated again
	// inside the measurement. Everything runs on one P from the start
	// instead.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
	// sync.Pool an epoch draws on (the frame decoder's, and the standard
	// library's behind fmt, encoding/json and net/http) keeps what it holds
	// through one collection only, and what an epoch allocates would depend
	// on when the collector last ran.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, epoch)
	runtime.ReadMemStats(&after)
	perEpoch := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if limit := uint64(per * 40); perEpoch >= limit {
		t.Errorf("a warm epoch allocates %d B, want under %d: an event buffer is among them", perEpoch, limit)
	}
	if want := 114.0; allocs != want {
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
