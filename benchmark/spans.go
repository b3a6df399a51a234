package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into a layer. Times are
// nanoseconds since the recorder started; parent is an index into the
// recorder's spans, -1 for a root; op ties the spans of one op together.
type span struct {
	name       int32
	parent     int32
	op         int32
	start, end int64
}

// spans records spans in memory, from the one client goroutine, and writes
// them out when the benchmark ends. A nil *spans records nothing, which is
// how the untraced run pays nothing for the calls left in the op bodies.
type spans struct {
	t0     time.Time
	names  []string
	nameID map[string]int32
	all    []span
	open   []int32 // stack of spans begun and not ended
}

func newSpans() *spans {
	return &spans{t0: time.Now(), nameID: map[string]int32{}}
}

// begin opens a span under the innermost open one and returns its handle.
func (sp *spans) begin(name string, op int) int32 {
	if sp == nil {
		return -1
	}
	id, ok := sp.nameID[name]
	if !ok {
		id = int32(len(sp.names))
		sp.names = append(sp.names, name)
		sp.nameID[name] = id
	}
	parent := int32(-1)
	if n := len(sp.open); n > 0 {
		parent = sp.open[n-1]
	}
	h := int32(len(sp.all))
	sp.all = append(sp.all, span{name: id, parent: parent, op: int32(op), start: int64(time.Since(sp.t0))})
	sp.open = append(sp.open, h)
	return h
}

// end closes the span begin returned; spans close innermost first.
func (sp *spans) end(h int32) {
	if sp == nil {
		return
	}
	sp.all[h].end = int64(time.Since(sp.t0))
	sp.open = sp.open[:len(sp.open)-1]
}

// durationsMS returns the duration of every closed span with the given
// name, in milliseconds.
func (sp *spans) durationsMS(name string) []float64 {
	if sp == nil {
		return nil
	}
	id, ok := sp.nameID[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range sp.all {
		if s.name == id {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover.
func (sp *spans) selfTimes() []int64 {
	self := make([]int64, len(sp.all))
	for i, s := range sp.all {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// spanFile is the on-disk form: one row per span, names interned.
type spanFile struct {
	Names   []string   `json:"names"`
	Columns []string   `json:"columns"`
	Spans   [][6]int64 `json:"spans"`
}

func (sp *spans) writeFile(path string) error {
	self := sp.selfTimes()
	doc := spanFile{
		Names:   sp.names,
		Columns: []string{"name", "start_ns", "end_ns", "parent", "op", "self_ns"},
		Spans:   make([][6]int64, len(sp.all)),
	}
	for i, s := range sp.all {
		doc.Spans[i] = [6]int64{int64(s.name), s.start, s.end, int64(s.parent), int64(s.op), self[i]}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
