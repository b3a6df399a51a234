package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/vclock"
)

// Columnar (v2) chunk format. Same magic as v1; the version after the magic
// selects the decoder, so mixed-version directories work chunk by chunk.
//
//	magic    "RLSC"        (4 bytes)
//	version  uvarint       (2)
//	count    uvarint       (number of events)
//	namedict uvarint entry count, then per entry: uvarint length + bytes.
//	         Entries appear in first-use order; the name column references
//	         them by index.
//	classtab uvarint entry count, then per entry 3 bytes: kind, cat,
//	         overhead. A "class" is the distinct (Kind, Cat, Overhead)
//	         triple; real traces use a dozen or so, so the class column
//	         references this table with 1-byte indices instead of spending
//	         v1's fixed 3 header bytes per event.
//	coldir   numCols uvarints: the byte length of each column, in column
//	         order, so a reader can seek to any column in O(1).
//	columns  concatenated, in order:
//
//	  classes mode byte, then RLE pairs (uvarint run + uvarint class index)
//	          or one plain uvarint index per event
//	  procs   mode byte, then RLE pairs (uvarint run + uvarint ProcID) or
//	          one plain uvarint per event
//	  starts  varint delta from the previous event's start (first absolute)
//	  durs    mode byte, then RLE pairs (uvarint run + uvarint End − Start)
//	          or one plain uvarint per event
//	  names   mode byte, then RLE pairs (uvarint run + uvarint dictionary
//	          index) or one plain uvarint index per event
//
// Every column except starts carries a leading mode byte: the encoder emits
// both candidate encodings and keeps the smaller. When events arrive in
// class-sorted bursts the run-length form collapses a column to amortized
// fractions of a byte per event; when values alternate every event (RLE's
// adversarial case — real step loops interleave kinds constantly) the plain
// form caps the cost at one small uvarint, still far below v1's fixed
// 3-byte header + proc byte. The name dictionary stores each distinct name
// exactly once per chunk, and a decoder materializes it straight into an
// Interner, so events across the whole trace share one string object per
// distinct name.
const chunkVersion2 = 2

// Column encodings, selected per column by the leading mode byte.
const (
	colModeRLE   = 0
	colModePlain = 1
)

// Column indices, in on-disk order.
const (
	colClasses = iota
	colProcs
	colStarts
	colDurs
	colNames
	numCols
)

// modeColumns lists the columns that carry a leading mode byte (every one
// except starts), paired with the plain-candidate scratch slot the encoder
// builds alongside the RLE form.
var modeColumns = [4]int{colClasses, colProcs, colDurs, colNames}

// maxNameLen bounds a single name (shared with the v1 decoder).
const maxNameLen = 1 << 16

// classKey packs one (Kind, Cat, Overhead) triple the way v1's event header
// stores it: one byte each, silently truncated.
func classKey(e Event) uint32 {
	return uint32(byte(e.Kind))<<16 | uint32(byte(e.Cat))<<8 | uint32(byte(e.Overhead))
}

// v2Encoder holds the reusable scratch of one v2 encode. The mode columns
// are built twice — run-length into cols, plain into plain — and the smaller
// encoding wins at emit time.
type v2Encoder struct {
	cols    [numCols][]byte
	plain   [len(modeColumns)][]byte
	dict    []byte
	classes []byte
	out     []byte
	refs    map[string]uint64
	classOf map[uint32]uint64
}

var v2EncPool = sync.Pool{New: func() any {
	return &v2Encoder{refs: map[string]uint64{}, classOf: map[uint32]uint64{}}
}}

// rleState accumulates one run-length-encoded column during encode.
type rleState struct {
	run     uint64
	val     uint64
	started bool
}

func (r *rleState) add(col *[]byte, v uint64) {
	if r.started && v == r.val {
		r.run++
		return
	}
	r.flush(col)
	r.val, r.run, r.started = v, 1, true
}

func (r *rleState) flush(col *[]byte) {
	if !r.started {
		return
	}
	*col = binary.AppendUvarint(*col, r.run)
	*col = binary.AppendUvarint(*col, r.val)
	r.run = 0
}

// EncodeChunkV2 writes events as one columnar chunk frame to w. The frame is
// deterministic: equal event lists encode to equal bytes.
func EncodeChunkV2(w io.Writer, events []Event) error {
	enc := v2EncPool.Get().(*v2Encoder)
	defer v2EncPool.Put(enc)
	frame, err := enc.encode(events)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// encodeChunkV2 returns events as one columnar frame the caller owns (the
// encoder's own frame is pooled scratch).
func encodeChunkV2(events []Event) ([]byte, error) {
	enc := v2EncPool.Get().(*v2Encoder)
	defer v2EncPool.Put(enc)
	frame, err := enc.encode(events)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(frame), nil
}

func (e *v2Encoder) encode(events []Event) ([]byte, error) {
	for i := range e.cols {
		e.cols[i] = e.cols[i][:0]
	}
	for i := range e.plain {
		e.plain[i] = e.plain[i][:0]
	}
	e.dict = e.dict[:0]
	e.classes = e.classes[:0]
	e.out = e.out[:0]
	clear(e.refs)
	clear(e.classOf)

	var classes, procs, durs, names rleState
	var prevStart int64
	for _, ev := range events {
		if ev.End < ev.Start {
			return nil, fmt.Errorf("trace: encode: event %q has negative duration", ev.Name)
		}
		key := classKey(ev)
		class, ok := e.classOf[key]
		if !ok {
			class = uint64(len(e.classOf))
			e.classOf[key] = class
			e.classes = append(e.classes, byte(ev.Kind), byte(ev.Cat), byte(ev.Overhead))
		}
		classes.add(&e.cols[colClasses], class)
		e.plain[0] = binary.AppendUvarint(e.plain[0], class)
		procs.add(&e.cols[colProcs], uint64(ev.Proc))
		e.plain[1] = binary.AppendUvarint(e.plain[1], uint64(ev.Proc))
		e.cols[colStarts] = binary.AppendVarint(e.cols[colStarts], int64(ev.Start)-prevStart)
		prevStart = int64(ev.Start)
		durs.add(&e.cols[colDurs], uint64(ev.End-ev.Start))
		e.plain[2] = binary.AppendUvarint(e.plain[2], uint64(ev.End-ev.Start))
		ref, ok := e.refs[ev.Name]
		if !ok {
			ref = uint64(len(e.refs))
			e.refs[ev.Name] = ref
			e.dict = binary.AppendUvarint(e.dict, uint64(len(ev.Name)))
			e.dict = append(e.dict, ev.Name...)
		}
		names.add(&e.cols[colNames], ref)
		e.plain[3] = binary.AppendUvarint(e.plain[3], ref)
	}
	classes.flush(&e.cols[colClasses])
	procs.flush(&e.cols[colProcs])
	durs.flush(&e.cols[colDurs])
	names.flush(&e.cols[colNames])

	// Pick the smaller encoding per mode column (ties keep RLE, so the
	// choice — and the frame — is deterministic).
	var mode [numCols]byte
	for j, ci := range modeColumns {
		if len(e.plain[j]) < len(e.cols[ci]) {
			mode[ci] = colModePlain
			e.cols[ci], e.plain[j] = e.plain[j], e.cols[ci]
		}
	}

	e.out = append(e.out, chunkMagic...)
	e.out = binary.AppendUvarint(e.out, chunkVersion2)
	e.out = binary.AppendUvarint(e.out, uint64(len(events)))
	e.out = binary.AppendUvarint(e.out, uint64(len(e.refs)))
	e.out = append(e.out, e.dict...)
	e.out = binary.AppendUvarint(e.out, uint64(len(e.classOf)))
	e.out = append(e.out, e.classes...)
	for i := range e.cols {
		n := len(e.cols[i])
		if i != colStarts {
			n++ // leading mode byte
		}
		e.out = binary.AppendUvarint(e.out, uint64(n))
	}
	for i := range e.cols {
		if i != colStarts {
			e.out = append(e.out, mode[i])
		}
		e.out = append(e.out, e.cols[i]...)
	}
	return e.out, nil
}

// eventClass is one decoded (Kind, Cat, Overhead) triple from the class
// table.
type eventClass struct {
	kind EventKind
	cat  Category
	ov   OverheadKind
}

// ColumnChunk is a parsed columnar chunk: the column byte slices alias the
// frame passed to Parse (zero copy), and the name dictionary and class table
// are materialized once — names through an Interner when given one, so
// repeated names across chunks share storage. Iterating events constructs
// Event values on the fly without any per-event allocation; Name fields are
// dictionary references, so they stay valid after the frame's buffer is
// reused.
//
// A ColumnChunk is only valid while the frame it was parsed from is; parsing
// again into the same ColumnChunk reuses its scratch.
type ColumnChunk struct {
	count   int
	dict    []string
	classes []eventClass
	cols    [numCols][]byte
}

// ParseColumnChunk parses one v2 chunk frame. in may be nil.
func ParseColumnChunk(frame []byte, in *Interner) (*ColumnChunk, error) {
	c := &ColumnChunk{}
	if err := c.Parse(frame, in); err != nil {
		return nil, err
	}
	return c, nil
}

// Parse (re)initializes c from one v2 chunk frame, reusing c's scratch. The
// frame must start with the chunk magic and version 2; every structural
// field is bounds-checked so corrupt or truncated frames return errors, never
// panic.
func (c *ColumnChunk) Parse(frame []byte, in *Interner) error {
	c.count = 0
	c.dict = c.dict[:0]
	c.classes = c.classes[:0]
	for i := range c.cols {
		c.cols[i] = nil
	}
	if len(frame) < len(chunkMagic) {
		return fmt.Errorf("trace: decode: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(frame[:len(chunkMagic)]) != chunkMagic {
		return fmt.Errorf("trace: decode: bad magic %q", frame[:len(chunkMagic)])
	}
	cur := colCursor{b: frame, off: len(chunkMagic)}
	version, err := cur.uvarint("version")
	if err != nil {
		return err
	}
	if version != chunkVersion2 {
		return fmt.Errorf("trace: decode: unsupported version %d", version)
	}
	count, err := cur.uvarint("count")
	if err != nil {
		return err
	}
	ndict, err := cur.uvarint("dict size")
	if err != nil {
		return err
	}
	if ndict > uint64(len(cur.b)-cur.off) {
		return fmt.Errorf("trace: decode: dict size %d exceeds frame", ndict)
	}
	for i := uint64(0); i < ndict; i++ {
		slen, err := cur.uvarint("dict entry len")
		if err != nil {
			return err
		}
		if slen > maxNameLen {
			return fmt.Errorf("trace: decode: dict entry %d length %d exceeds limit", i, slen)
		}
		b, err := cur.take(int(slen), "dict entry")
		if err != nil {
			return err
		}
		if in != nil {
			c.dict = append(c.dict, in.Intern(b))
		} else {
			c.dict = append(c.dict, string(b))
		}
	}
	nclasses, err := cur.uvarint("class table size")
	if err != nil {
		return err
	}
	if nclasses > uint64(len(cur.b)-cur.off)/3 {
		return fmt.Errorf("trace: decode: class table size %d exceeds frame", nclasses)
	}
	for i := uint64(0); i < nclasses; i++ {
		b, err := cur.take(3, "class table entry")
		if err != nil {
			return err
		}
		c.classes = append(c.classes, eventClass{
			kind: EventKind(b[0]), cat: Category(b[1]), ov: OverheadKind(b[2]),
		})
	}
	var lens [numCols]int
	total := 0
	for i := 0; i < numCols; i++ {
		n, err := cur.uvarint("column directory")
		if err != nil {
			return err
		}
		if n > uint64(len(cur.b)-cur.off) {
			return fmt.Errorf("trace: decode: column %d length %d exceeds frame", i, n)
		}
		lens[i] = int(n)
		total += int(n)
	}
	if total > len(cur.b)-cur.off {
		return fmt.Errorf("trace: decode: columns (%d bytes) exceed frame", total)
	}
	for i := 0; i < numCols; i++ {
		b, err := cur.take(lens[i], "column")
		if err != nil {
			return err
		}
		c.cols[i] = b
	}
	// Every event consumes at least one byte in the start column (the only
	// one that is never run-length encoded), so a plausible count is bounded
	// by its length; this rejects absurd counts before any iteration work.
	if count > uint64(len(c.cols[colStarts])) {
		return fmt.Errorf("trace: decode: count %d exceeds column data", count)
	}
	for _, ci := range modeColumns {
		b := c.cols[ci]
		if len(b) == 0 {
			if count > 0 {
				return fmt.Errorf("trace: decode: column %d missing mode byte", ci)
			}
			continue
		}
		if b[0] != colModeRLE && b[0] != colModePlain {
			return fmt.Errorf("trace: decode: column %d has unknown mode %d", ci, b[0])
		}
	}
	c.count = int(count)
	return nil
}

// Len reports the chunk's event count.
func (c *ColumnChunk) Len() int { return c.count }

// colCursor walks one byte slice, returning errors (never panicking) on
// truncation or malformed varints.
type colCursor struct {
	b   []byte
	off int
}

func (c *colCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: decode: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	c.off += n
	return v, nil
}

func (c *colCursor) varint(what string) (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: decode: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	c.off += n
	return v, nil
}

func (c *colCursor) take(n int, what string) ([]byte, error) {
	if n < 0 || n > len(c.b)-c.off {
		return nil, fmt.Errorf("trace: decode: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

// modeCursor replays one mode column in whichever encoding its mode byte
// selects: run-length pairs or one plain uvarint per event.
type modeCursor struct {
	cur   colCursor
	run   uint64
	val   uint64
	plain bool
	what  string
}

// newModeCursor positions a cursor past the column's mode byte (validated by
// Parse; an empty column only occurs when the chunk has zero events).
func newModeCursor(b []byte, what string) modeCursor {
	c := modeCursor{cur: colCursor{b: b}, what: what}
	if len(b) > 0 {
		c.plain = b[0] == colModePlain
		c.cur.off = 1
	}
	return c
}

func (r *modeCursor) next() (uint64, error) {
	if r.plain {
		return r.cur.uvarint(r.what)
	}
	for r.run == 0 {
		n, err := r.cur.uvarint(r.what)
		if err != nil {
			return 0, err
		}
		if r.val, err = r.cur.uvarint(r.what); err != nil {
			return 0, err
		}
		r.run = n
	}
	r.run--
	return r.val, nil
}

// Events iterates the chunk in storage order, constructing each Event on the
// stack — no per-event allocation, names resolved through the dictionary.
// Iteration stops early when yield returns false. The same corruption
// classes the v1 decoder rejects (duration overflow, dangling dictionary or
// class references, truncated columns) surface as errors here.
func (c *ColumnChunk) Events(yield func(i int, e Event) bool) error {
	classes := newModeCursor(c.cols[colClasses], "class column")
	procs := newModeCursor(c.cols[colProcs], "proc column")
	durs := newModeCursor(c.cols[colDurs], "dur column")
	names := newModeCursor(c.cols[colNames], "name column")
	starts := colCursor{b: c.cols[colStarts]}
	var prevStart int64
	for i := 0; i < c.count; i++ {
		var e Event
		class, err := classes.next()
		if err != nil {
			return fmt.Errorf("trace: decode: event %d class: %w", i, err)
		}
		if class >= uint64(len(c.classes)) {
			return fmt.Errorf("trace: decode: event %d references class %d beyond class table size %d", i, class, len(c.classes))
		}
		cl := c.classes[class]
		e.Kind, e.Cat, e.Overhead = cl.kind, cl.cat, cl.ov
		v, err := procs.next()
		if err != nil {
			return fmt.Errorf("trace: decode: event %d proc: %w", i, err)
		}
		e.Proc = ProcID(v)
		delta, err := starts.varint("start")
		if err != nil {
			return fmt.Errorf("trace: decode: event %d start: %w", i, err)
		}
		prevStart += delta
		e.Start = vclock.Time(prevStart)
		dur, err := durs.next()
		if err != nil {
			return fmt.Errorf("trace: decode: event %d dur: %w", i, err)
		}
		e.End = e.Start.Add(vclock.Duration(dur))
		if e.End < e.Start {
			return fmt.Errorf("trace: decode: event %d duration %d overflows", i, dur)
		}
		ref, err := names.next()
		if err != nil {
			return fmt.Errorf("trace: decode: event %d name ref: %w", i, err)
		}
		if ref >= uint64(len(c.dict)) {
			return fmt.Errorf("trace: decode: event %d references name %d beyond dictionary size %d", i, ref, len(c.dict))
		}
		e.Name = c.dict[ref]
		if !yield(i, e) {
			return nil
		}
	}
	return nil
}

// Times iterates only the timestamp columns — start and end per event — for
// consumers that need extents without names or classifications.
func (c *ColumnChunk) Times(yield func(i int, start, end vclock.Time) bool) error {
	starts := colCursor{b: c.cols[colStarts]}
	durs := newModeCursor(c.cols[colDurs], "dur column")
	var prevStart int64
	for i := 0; i < c.count; i++ {
		delta, err := starts.varint("start")
		if err != nil {
			return fmt.Errorf("trace: decode: event %d start: %w", i, err)
		}
		prevStart += delta
		start := vclock.Time(prevStart)
		dur, err := durs.next()
		if err != nil {
			return fmt.Errorf("trace: decode: event %d dur: %w", i, err)
		}
		end := start.Add(vclock.Duration(dur))
		if end < start {
			return fmt.Errorf("trace: decode: event %d duration %d overflows", i, dur)
		}
		if !yield(i, start, end) {
			return nil
		}
	}
	return nil
}

// AppendEvents materializes the chunk, appending its events to dst — the v2
// half of DecodeChunk. dst grows once, by the count Parse validated.
func (c *ColumnChunk) AppendEvents(dst []Event) ([]Event, error) {
	dst = slices.Grow(dst, c.Len())
	err := c.Events(func(_ int, e Event) bool {
		dst = append(dst, e)
		return true
	})
	return dst, err
}
