package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	rlscope "repro"
	"repro/internal/disk"
	"repro/internal/trace"
)

// faultKind is what a fault schedule does at its numbered call.
type faultKind uint8

const (
	noFault    faultKind = iota
	enospc               // the call fails with ENOSPC
	shortWrite           // half the bytes land, then ENOSPC
	crash                // the process dies in the call: half the bytes land, and every later call fails
	powerLoss            // a crash, after which every file the run wrote keeps a seeded prefix
	dead                 // not a schedule's: what every call after a crash meets
)

var faultNames = []string{"none", "enospc", "short-write", "crash", "power-loss"}

// errCrashed is what a call meets once the process has crashed.
var errCrashed = errors.New("the process has crashed")

// faultFS is disk.OS over a test's own directories, with a fault at its
// at-th mutating call: MkdirAll, WriteFile, Replace and Remove are numbered
// from 1. It records every file it wrote, for a power loss to cut short.
type faultFS struct {
	kind faultKind
	at   int

	mu      sync.Mutex
	calls   int  // mutating calls so far
	fired   bool // the fault has struck
	crashed bool
	mark    bool     // fired, as the request being served began
	written []string // files written, in order of first write
}

// mutate numbers a mutating call and says what befalls it.
func (f *faultFS) mutate() faultKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return dead
	}
	if f.calls++; f.calls != f.at || f.kind == noFault {
		return noFault
	}
	f.fired, f.crashed = true, f.kind >= crash
	return min(f.kind, crash)
}

// count is the mutating calls so far, and whether the fault has struck.
func (f *faultFS) count() (calls int, fired bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.fired
}

// err is the error a faulted call of op on name returns.
func (f *faultFS) err(kind faultKind, op, name string) error {
	if kind <= shortWrite {
		return &fs.PathError{Op: op, Path: name, Err: syscall.ENOSPC}
	}
	return &fs.PathError{Op: op, Path: name, Err: errCrashed}
}

// read fails once the process has crashed.
func (f *faultFS) read(op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return f.err(dead, op, name)
	}
	return nil
}

func (f *faultFS) wrote(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !slices.Contains(f.written, name) {
		f.written = append(f.written, name)
	}
}

func (f *faultFS) MkdirAll(dir string) error {
	if kind := f.mutate(); kind != noFault {
		return f.err(kind, "mkdir", dir)
	}
	return disk.OS.MkdirAll(dir)
}

func (f *faultFS) ReadDirNames(dir string) ([]string, error) {
	if err := f.read("open", dir); err != nil {
		return nil, err
	}
	return disk.OS.ReadDirNames(dir)
}

func (f *faultFS) ReadFile(name string, buf []byte) ([]byte, error) {
	if err := f.read("open", name); err != nil {
		return buf[:0], err
	}
	return disk.OS.ReadFile(name, buf)
}

func (f *faultFS) WriteFile(name string, data []byte) error {
	kind := f.mutate()
	if kind == noFault || kind == shortWrite || kind == crash {
		f.wrote(name)
	}
	switch kind {
	case noFault:
		return disk.OS.WriteFile(name, data)
	case shortWrite, crash:
		if err := disk.OS.WriteFile(name, data[:len(data)/2]); err != nil {
			return err
		}
	}
	return f.err(kind, "write", name)
}

func (f *faultFS) Replace(name string, parts ...[]byte) error {
	switch kind := f.mutate(); kind {
	case noFault:
		f.wrote(name)
		return disk.OS.Replace(name, parts...)
	case crash:
		// The temporary file keeps half the bytes, and the rename never
		// happens.
		data := bytes.Join(parts, nil)
		tmp := filepath.Join(filepath.Dir(name), ".tmp-crash")
		f.wrote(tmp)
		if err := disk.OS.WriteFile(tmp, data[:len(data)/2]); err != nil {
			return err
		}
		return f.err(kind, "write", tmp)
	default:
		// A short write lands in the temporary file, which the failed
		// Replace removes: nothing lands, as for ENOSPC.
		return f.err(kind, "write", name)
	}
}

func (f *faultFS) Remove(name string) error {
	if kind := f.mutate(); kind != noFault {
		return f.err(kind, "remove", name)
	}
	return disk.OS.Remove(name)
}

func (f *faultFS) Size(name string) (int64, error) {
	if err := f.read("stat", name); err != nil {
		return 0, err
	}
	return disk.OS.Size(name)
}

// replayable readies req to be sent again, and marks where the faults
// stood. It is nil without a fault schedule.
func (f *faultFS) replayable(req *http.Request) func() *http.Request {
	if f == nil {
		return nil
	}
	raw, err := io.ReadAll(req.Body)
	if err != nil {
		panic(err)
	}
	req.Body = io.NopCloser(bytes.NewReader(raw))
	f.mu.Lock()
	f.mark = f.fired
	f.mu.Unlock()
	return func() *http.Request {
		again := req.Clone(req.Context())
		again.Body = io.NopCloser(bytes.NewReader(raw))
		return again
	}
}

// refused reports whether the fault struck during the request just served
// and it answered status, an error: the request a client sends again.
func (f *faultFS) refused(status int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return status >= 300 && f.fired && !f.mark && !f.crashed
}

// losePower cuts every file the run wrote to a prefix seeded by seed: a
// third of them to nothing, the rest to a length drawn from [0, size].
// Nothing is synced, so none of their bytes need have reached the device.
// It returns each file's size before and after.
func (f *faultFS) losePower(tb testing.TB, seed int64) map[string][2]int {
	tb.Helper()
	cut := map[string][2]int{}
	rng := rand.New(rand.NewSource(seed))
	for _, name := range f.written {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		n := rng.Intn(len(data) + 1)
		if rng.Intn(3) == 0 {
			n = 0
		}
		if err := os.WriteFile(name, data[:n], 0o644); err != nil {
			tb.Fatal(err)
		}
		cut[name] = [2]int{len(data), n}
	}
	return cut
}

// lifecycle is what one run of faultLifecycle leaves.
type lifecycle struct {
	calls   []int             // the mutating calls made before each step, and in all
	digest  string            // DirDigest of the streamed directory, once registered after the restart
	doc     []byte            // the analyze of that registration
	outcome string            // every answer, in order, and the digest
	entries map[string][]byte // report-store entries by key (the run with no fault)
	renders map[string][]byte // the model's renders (the run with no fault), for the rest to share
	// After a power loss: the acknowledged appends and seals whose files did
	// not keep their bytes, and the report entries cut to nothing and short.
	lost, emptied, shortened int
}

// faultLifecycle runs one lifecycle on the scenario driver with kind's fault
// at mutating call at: create a live trace, append src in appends frames,
// analyze it, seal it, query, restart, then register the streamed directory
// and analyze it. ref is the run with no fault (nil: this is it), whose calls
// name the request in which a crash strikes. Every answer is a 2xx or a
// documented envelope that quotes no store path. A request that ENOSPC or a
// short write refused is sent again, and the run converges: the directory's
// digest and the final document are ref's. After a crash or a power loss
// the server restarts on disk.OS; every report-store key the model knows
// reads back absent or as ref stored it, and the directory registers and
// analyzes as the offline Engine reads it, or does not register.
func faultLifecycle(tb testing.TB, src *trace.Trace, appends int, kind faultKind, at int, ref *lifecycle) *lifecycle {
	tb.Helper()
	store, reports := tb.TempDir(), tb.TempDir()
	ffs := &faultFS{kind: kind, at: at}
	sc := newScenario(tb, Config{StoreDir: store, Reports: &DiskStore{fs: ffs, dir: reports}, MaxWorkers: 1})
	sc.s.fs, sc.faults = ffs, ffs
	if ref != nil {
		sc.renders = maps.Clone(ref.renders)
	}
	meta := src.Meta
	meta.Labels = map[string]string{"algo": "ppo"}
	sealBody, err := json.Marshal(meta)
	if err != nil {
		tb.Fatal(err)
	}
	type step struct {
		target, body string
		model        func()
	}
	steps := []step{{"/v1/traces", `{"id":"live"}`, func() {
		sc.create(`{"id":"live"}`)
		sc.traces["live"].src = src
	}}}
	for seq, c := range frameChunks(tb, src, appends) {
		steps = append(steps, step{fmt.Sprintf("/v1/traces/live/chunks?seq=%d", seq), string(c.b), func() { sc.append("live", seq, c, src) }})
	}
	steps = append(steps,
		step{"/v1/traces/live/analyze", "", func() { sc.analyze("live", "") }},
		step{"/v1/traces/live/seal", string(sealBody), func() { sc.seal("live", string(sealBody)) }},
		step{"/v1/query", `{}`, func() { sc.query(`{}`) }})
	res := &lifecycle{}
	for i, st := range steps {
		calls, _ := ffs.count()
		res.calls = append(res.calls, calls)
		if kind >= crash && ref != nil && ref.calls[i] < at && at <= ref.calls[i+1] {
			// The process dies serving it: its answer is all there is.
			sc.do("POST", st.target, st.body)
			break
		}
		st.model()
	}
	calls, fired := ffs.count()
	if res.calls = append(res.calls, calls); kind != noFault && at <= calls && !fired {
		tb.Fatalf("%s at call %d never struck", faultNames[kind], at)
	}
	digest := ""
	if m := sc.traces["live"]; m != nil && m.entry != nil {
		digest = m.entry.info.Digest
	}
	if kind == powerLoss {
		cut := ffs.losePower(tb, int64(at))
		res.lost = sc.lostAcks(cut)
		for name, c := range cut {
			switch {
			case !strings.HasSuffix(name, reportFileSuffix) || c[1] == c[0]:
			case c[1] == 0:
				res.emptied++
			default:
				res.shortened++
			}
		}
	}

	sc.faults, sc.cfg.Reports = nil, &DiskStore{fs: disk.OS, dir: reports}
	sc.restart()
	if ref != nil {
		sc.reportsHold(digest, ref.entries, false)
	}
	live := filepath.Join(store, "live")
	if sc.adopt("again", live) {
		m := sc.traces["again"]
		if _, err := rlscope.NewEngine(rlscope.WithWorkers(1)).Analyze(context.Background(), rlscope.FromDir(live)); err != nil {
			sc.broken[m.entry.info.Digest] = true
		}
		res.digest, res.doc = m.entry.info.Digest, sc.analyze("again", "")
		if kind == crash && res.doc != nil {
			// A torn chunk in the trace store: a failed run's answer names
			// the trace and the chunk, not the store.
			sc.addBroken("torn", live)
			sc.analyze("torn", "")
			sc.query(`{}`)
		}
	}
	switch {
	case ref == nil:
		res.entries, res.renders = map[string][]byte{}, sc.renders
		for _, key := range reportKeys(sc, res.digest) {
			if res.entries[key], _ = sc.cfg.Reports.Get(key); res.entries[key] == nil {
				tb.Fatalf("a run with no fault stored no %s", key)
			}
		}
	case kind <= shortWrite && (res.digest != ref.digest || !bytes.Equal(res.doc, ref.doc)):
		tb.Fatalf("after %s at call %d: digest %s, the run with no fault %s; documents equal: %v",
			faultNames[kind], at, res.digest, ref.digest, bytes.Equal(res.doc, ref.doc))
	case res.digest == ref.digest:
		sc.reportsHold(res.digest, ref.entries, true)
	}
	res.outcome = strings.Join(sc.trail, ",") + " " + res.digest
	return res
}

// reportKeys maps the model's report-store keys of digest d's documents to
// the store's: the result set, the result-only document a seal stores, and
// the default full document.
func reportKeys(sc *scenario, d string) map[string]string {
	return map[string]string{
		"rs|" + d:                       resultSetKey(d),
		docKey(d, false, 0, false, nil): cacheKey(d, resultOnly(canonical{})),
		docKey(d, true, 0, false, nil):  cacheKey(d, sc.s.canonicalize(AnalyzeRequest{})),
	}
}

// reportsHold is check 3's report-store half: every key of digest d the model
// knows reads back byte-identical to want, or absent — and then the model
// forgets it, unless strict, when it must be there.
func (sc *scenario) reportsHold(d string, want map[string][]byte, strict bool) {
	sc.tb.Helper()
	keys := reportKeys(sc, d)
	for mk := range sc.stored {
		key, ok := keys[mk]
		switch {
		case strings.HasPrefix(mk, "q|"):
		case !ok && !strict:
			sc.tb.Fatalf("the model knows %.80s, which no report-store key maps", mk)
		case ok:
			got, found := sc.cfg.Reports.Get(key)
			if !found && !strict {
				delete(sc.stored, mk)
			} else if !bytes.Equal(got, want[key]) {
				sc.tb.Fatalf("report-store entry %.80s: found %v, %d bytes; the run with no fault stored %d", key, found, len(got), len(want[key]))
			}
		}
	}
}

// lostAcks counts the acknowledged appends and the acknowledged seal of the
// live trace whose files a power loss cut.
func (sc *scenario) lostAcks(cut map[string][2]int) (lost int) {
	m := sc.traces["live"]
	if m == nil {
		return 0
	}
	var names []string
	for seq := range m.frames {
		name := fmt.Sprintf("chunk_%06d.rlstrace", seq)
		names = append(names, name, strings.TrimSuffix(name, ".rlstrace")+".rlsidx")
	}
	if m.state == StateSealed {
		names = append(names, "meta.json")
	}
	for _, name := range names {
		if c := cut[filepath.Join(m.dir, name)]; c[1] < c[0] {
			lost++
		}
	}
	return lost
}

// TestFaultSchedule runs the lifecycle once with no fault, then once for
// every mutating call k and every fault kind: ENOSPC at k, a short write at
// k, a crash at k, and a power loss at k or after the last call, each twice.
// Checks 1–3 hold at every k (faultLifecycle), and a k answers the same twice.
// The power-loss runs also pin what a 200 does not promise today (DESIGN
// §11): some acknowledged append or seal loses bytes. When appends and
// seals are synced, that check flips. And every power-loss report entry cut
// to nothing or cut short reads as a miss.
func TestFaultSchedule(t *testing.T) {
	src := twoProcTrace(t, 12)
	ref := faultLifecycle(t, src, 3, noFault, 0, nil)
	n := ref.calls[len(ref.calls)-1]
	if n < 10 {
		t.Fatalf("the lifecycle made %d mutating calls, want a create, three appends of two files and a seal's three", n)
	}
	var lost, emptied, shortened int
	for kind := enospc; kind <= powerLoss; kind++ {
		last := n
		if kind == powerLoss {
			last++ // power lost after the last call
		}
		for k := 1; k <= last; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", faultNames[kind], k), func(t *testing.T) {
				res := faultLifecycle(t, src, 3, kind, k, ref)
				lost, emptied, shortened = lost+res.lost, emptied+res.emptied, shortened+res.shortened
				if again := faultLifecycle(t, src, 3, kind, k, ref).outcome; again != res.outcome {
					t.Errorf("answered %s, then %s", res.outcome, again)
				}
			})
		}
	}
	if lost == 0 {
		t.Error("no power loss cost an acknowledged append or seal its bytes: a 200 now promises them across power loss, so this check flips")
	}
	if emptied == 0 || shortened == 0 {
		t.Errorf("power losses emptied %d report entries and cut %d short, want both", emptied, shortened)
	}
}

// FuzzFaultSchedule is the lifecycle with the fault kind, the mutating call
// it strikes and the number of appends picked by the fuzz engine. Checks 1–3
// hold.
func FuzzFaultSchedule(f *testing.F) {
	for kind := enospc; kind <= powerLoss; kind++ {
		f.Add(uint8(kind), uint8(6), uint8(2))
	}
	src := twoProcTrace(f, 12)
	f.Fuzz(func(t *testing.T, kind, at, appends uint8) {
		n := 1 + int(appends)%4
		ref := faultLifecycle(t, src, n, noFault, 0, nil)
		calls := ref.calls[len(ref.calls)-1]
		faultLifecycle(t, src, n, faultKind(kind)%dead, 1+int(at)%(calls+1), ref)
	})
}
