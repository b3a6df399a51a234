package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/overlap"
	"repro/internal/trace"
)

// escapeStrings exercise every escaping rule of the encoder: HTML
// characters it must leave alone, the line separators it must escape,
// control bytes and bytes that are not UTF-8.
var escapeStrings = []string{"<b>&amp;</b>", "line\u2028para\u2029", "tab\tnul\x00bell\x07", "bad\xff\xfeutf8", `quote" back\`}

// freshJSON is EncodeJSON's reference: a new encoder with the same settings.
func freshJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// encodeFixtures returns one of each document kind this package encodes,
// its names and labels drawn from escapeStrings.
func encodeFixtures() map[string]any {
	meta := jsonTestMeta()
	meta.Workload, meta.Host = escapeStrings[0], escapeStrings[1]
	meta.Procs[1] = trace.ProcInfo{Name: escapeStrings[3], Parent: 0}
	res := jsonTestResult()
	res.ByKey[overlap.Key{Op: escapeStrings[2], Res: overlap.ResCPU, Cat: trace.CatPython}] = 7
	results := map[trace.ProcID]*overlap.Result{0: res, 1: jsonTestResult()}
	stats := analysis.StreamStats{Chunks: 3, ChunksDecoded: 3, Events: 12, Shards: 2, PeakResidentBytes: 1 << 40}
	withStats := NewAnalysis(meta, results, stats, true)
	resultOnly := NewResultAnalysis(meta, results, false)
	query := &QueryDoc{
		Query:  QueryEchoJSON{Filter: map[string]string{"algo": escapeStrings[0]}, GroupBy: []string{escapeStrings[4]}, Metrics: []string{"gpu_frac"}},
		Traces: 2,
		Groups: []GroupJSON{{
			Key:       map[string]string{escapeStrings[4]: escapeStrings[1]},
			TraceIDs:  []string{"a", escapeStrings[3]},
			Procs:     3,
			Metrics:   []MetricJSON{{Name: "gpu_frac", Value: RoundFrac(1.0 / 3)}},
			Breakdown: withStats.Processes[0].Breakdown,
			Compare:   &CompareJSON{Ratio: []MetricJSON{{Name: "gpu_frac", Value: RoundRatio(2.0 / 3)}}},
		}},
	}
	return map[string]any{
		"analysis with stats":  withStats,
		"result-only analysis": resultOnly,
		"query document":       query,
		"tree":                 TreeJSON(meta),
		"strings":              escapeStrings,
	}
}

// idleEncoders reports how many encoders jsonEncoders holds.
func idleEncoders() int {
	var held []*jsonEncoder
	for {
		e, ok := jsonEncoders.Get()
		if !ok {
			break
		}
		held = append(held, e)
	}
	for i := len(held) - 1; i >= 0; i-- {
		jsonEncoders.Put(held[i])
	}
	return len(held)
}

// TestEncodeJSONMatchesFreshEncoder: the recycled encoder writes a fresh
// encoder's bytes for every document kind, cold and warm, whatever the
// document encoded before it.
func TestEncodeJSONMatchesFreshEncoder(t *testing.T) {
	fixtures := encodeFixtures()
	for round := 0; round < 3; round++ {
		for name, doc := range fixtures {
			var got bytes.Buffer
			if err := EncodeJSON(&got, doc); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := freshJSON(t, doc); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("round %d, %s: recycled encoder wrote\n%s\nfresh encoder\n%s", round, name, got.Bytes(), want)
			}
		}
	}
}

// FuzzEncodeJSON: for any string, in a document and as a map key, the
// recycled encoder writes what a fresh one does.
func FuzzEncodeJSON(f *testing.F) {
	for _, s := range escapeStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		doc := map[string]any{s: []string{s, strings.ToUpper(s)}, "tree": &TreeNode{Name: s}}
		var got bytes.Buffer
		if err := EncodeJSON(&got, doc); err != nil {
			t.Fatal(err)
		}
		if want := freshJSON(t, doc); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%q: recycled encoder wrote %q, fresh encoder %q", s, got.Bytes(), want)
		}
	})
}

// failingWriter refuses every write, the way a connection whose client went
// away does.
type failingWriter struct{}

var errGone = errors.New("client went away")

func (failingWriter) Write([]byte) (int, error) { return 0, errGone }

// TestEncodeJSONDropsPoisonedEncoder: a json.Encoder keeps its first write
// error and returns it from every later Encode, so the encoder a failed
// write used is never handed out again — the next document, through the
// same stack, gets exactly a fresh encoder's bytes — and an encoder that
// wrote a document over maxEncodeBytes is not kept either.
func TestEncodeJSONDropsPoisonedEncoder(t *testing.T) {
	doc := encodeFixtures()["result-only analysis"]
	if err := EncodeJSON(io.Discard, doc); err != nil {
		t.Fatal(err)
	}
	idle := idleEncoders()
	if idle == 0 {
		t.Fatal("no encoder idle after an encode")
	}
	if err := EncodeJSON(failingWriter{}, doc); !errors.Is(err, errGone) {
		t.Fatalf("encode to a failing writer: %v, want %v", err, errGone)
	}
	if n := idleEncoders(); n != idle-1 {
		t.Fatalf("%d encoders idle after a failed write, want %d: the failed one went back", n, idle-1)
	}
	var got bytes.Buffer
	if err := EncodeJSON(&got, doc); err != nil {
		t.Fatalf("encode after a failed one: %v", err)
	}
	if want := freshJSON(t, doc); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("encode after a failed one wrote\n%s\nwant\n%s", got.Bytes(), want)
	}

	idle = idleEncoders()
	big := []string{strings.Repeat("x", maxEncodeBytes)}
	got.Reset()
	if err := EncodeJSON(&got, big); err != nil || !bytes.Equal(got.Bytes(), freshJSON(t, big)) {
		t.Fatalf("a document over maxEncodeBytes: err %v, or bytes differ", err)
	}
	if n := idleEncoders(); n != idle-1 {
		t.Fatalf("%d encoders idle after a document over maxEncodeBytes, want %d", n, idle-1)
	}
}

// TestEncodeJSONConcurrent: encodes running at once share jsonEncoders, so
// an encoder one of them puts back is the next one's; each must still write
// its own document, and the stack never holds more than its Max. Run under
// -race, this is what shows an encoder or its destination shared.
func TestEncodeJSONConcurrent(t *testing.T) {
	var docs []any
	for i := 0; i < 6; i++ {
		meta := jsonTestMeta()
		meta.Workload = fmt.Sprintf("%s-%d", escapeStrings[i%len(escapeStrings)], i)
		docs = append(docs, NewResultAnalysis(meta, map[trace.ProcID]*overlap.Result{trace.ProcID(i): jsonTestResult()}, i%2 == 0))
	}
	var wants [][]byte
	for _, doc := range docs {
		wants = append(wants, freshJSON(t, doc))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2*jsonEncoders.Max; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doc, want := docs[g%len(docs)], wants[g%len(docs)]
			var got bytes.Buffer
			for i := 0; i < 50; i++ {
				got.Reset()
				if err := EncodeJSON(&got, doc); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("goroutine %d, encode %d: wrote another document's bytes", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := idleEncoders(); n > jsonEncoders.Max {
		t.Fatalf("%d encoders idle, over the bound %d", n, jsonEncoders.Max)
	}
}

// TestEncodeJSONAllocs pins a warm EncodeJSON of the fixture document: the
// encoder and its indent buffer are kept here and encoding/json keeps its
// own encode state, so a warm encode allocates nothing.
func TestEncodeJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector encoding/json's sync.Pool drops its encode state at random")
	}
	doc := encodeFixtures()["analysis with stats"]
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := EncodeJSON(&buf, doc); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if got, want := testing.AllocsPerRun(20, encode), 0.0; got != want {
		t.Errorf("a warm EncodeJSON allocates %.0f times, want %.0f", got, want)
	}
}
