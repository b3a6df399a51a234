package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/recycle"
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
// encoding wins at emit time. Its maps are empty between encodes:
// appendChunkV2 clears them before the encoder goes idle.
type v2Encoder struct {
	cols    [numCols][]byte
	plain   [len(modeColumns)][]byte
	dict    []byte
	classes []byte
	refs    map[string]uint64
	classOf map[uint32]uint64
}

// v2Encoders keeps idle v2 encoders; encodes at once beyond four allocate
// afresh. An encoder whose buffers outgrew maxIdleEncoderBytes — about
// twice a default-sized chunk's — or whose maps held more than maxIdleNames
// entries is dropped instead of kept.
var v2Encoders = recycle.Stack[*v2Encoder]{Max: 4}

const maxIdleEncoderBytes = 4 * DefaultChunkBytes

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

// appendChunkV2 appends events as one columnar frame to dst, growing it at
// most once, by bufs.Reserve, to exactly the frame's size.
func appendChunkV2(dst []byte, events []Event, bufs *recycle.Store[byte]) ([]byte, error) {
	enc, ok := v2Encoders.Get()
	if !ok {
		enc = &v2Encoder{refs: map[string]uint64{}, classOf: map[uint32]uint64{}}
	}
	dst, err := enc.encode(dst, events, bufs)
	held := cap(enc.dict) + cap(enc.classes) // bytes of buffers kept idle
	for _, col := range enc.cols {
		held += cap(col)
	}
	for _, col := range enc.plain {
		held += cap(col)
	}
	if held <= maxIdleEncoderBytes && len(enc.refs)+len(enc.classOf) <= maxIdleNames {
		clear(enc.refs) // an idle encoder holds no name alive
		clear(enc.classOf)
		v2Encoders.Put(enc)
	}
	return dst, err
}

func (e *v2Encoder) encode(dst []byte, events []Event, bufs *recycle.Store[byte]) ([]byte, error) {
	for i := range e.cols {
		e.cols[i] = e.cols[i][:0]
	}
	for i := range e.plain {
		e.plain[i] = e.plain[i][:0]
	}
	e.dict = e.dict[:0]
	e.classes = e.classes[:0]

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

	// Room for the whole frame: the magic, the version, three counts and a
	// column length per column, each at most a maximal uvarint, then the
	// dictionary, the class table, the mode bytes and the columns.
	size := len(chunkMagic) + 1 + (3+numCols)*binary.MaxVarintLen64 + len(e.dict) + len(e.classes) + len(modeColumns)
	for i := range e.cols {
		size += len(e.cols[i])
	}
	dst = bufs.Reserve(dst, size)
	dst = append(dst, chunkMagic...)
	dst = binary.AppendUvarint(dst, chunkVersion2)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	dst = binary.AppendUvarint(dst, uint64(len(e.refs)))
	dst = append(dst, e.dict...)
	dst = binary.AppendUvarint(dst, uint64(len(e.classOf)))
	dst = append(dst, e.classes...)
	for i := range e.cols {
		n := len(e.cols[i])
		if i != colStarts {
			n++ // leading mode byte
		}
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	for i := range e.cols {
		if i != colStarts {
			dst = append(dst, mode[i])
		}
		dst = append(dst, e.cols[i]...)
	}
	return dst, nil
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
// repeated names across chunks share storage. Decoded events' Name fields are
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
	if cur.off != len(frame) {
		return errTrailing(len(frame) - cur.off)
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

func (c *colCursor) take(n int, what string) ([]byte, error) {
	if n < 0 || n > len(c.b)-c.off {
		return nil, fmt.Errorf("trace: decode: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

// colBlock is how many events the decoder expands from the columns at a time:
// enough that the per-block work disappears, few enough that the four value
// blocks (8 KiB) stay on the stack and in L1.
const colBlock = 256

// colIter replays one mode column block by block, in whichever encoding its
// mode byte selects: run-length pairs or one plain uvarint per event.
type colIter struct {
	b     []byte
	off   int
	plain bool
	run   uint64 // events the current run still covers
	val   uint64
}

// newColIter positions an iterator past the column's mode byte (validated by
// Parse; an empty column only occurs when the chunk has zero events).
func newColIter(b []byte) colIter {
	it := colIter{b: b}
	if len(b) > 0 {
		it.plain = b[0] == colModePlain
		it.off = 1
	}
	return it
}

// fill expands the column's next len(out) values into out — a run becomes a
// fill, not len(run) reads — and reports false when the column ends first.
func (it *colIter) fill(out []uint64) bool {
	b, off := it.b, it.off
	if it.plain {
		for i := range out {
			v, ok := uvarint1(b, off)
			if ok {
				off++
			} else if v, off = uvarint(b, off); off < 0 {
				return false
			}
			out[i] = v
		}
		it.off = off
		return true
	}
	for len(out) > 0 {
		for it.run == 0 {
			if it.run, off = uvarint(b, off); off < 0 {
				return false
			}
			if it.val, off = uvarint(b, off); off < 0 {
				return false
			}
		}
		n := int(min(it.run, uint64(len(out))))
		for i := range out[:n] {
			out[i] = it.val
		}
		it.run -= uint64(n)
		out = out[n:]
	}
	it.off = off
	return true
}

// colWalk is the position of one block-at-a-time pass over a chunk's columns:
// next expands the following block of every mode column and builds its
// events, reading the start column as it goes and applying the per-event
// checks the v1 decoder applies — duration overflow, dangling dictionary or
// class references, truncated columns.
type colWalk struct {
	c                          *ColumnChunk
	classes, procs, durs, refs colIter
	starts                     []byte
	soff                       int
	prevStart                  int64
	done                       int   // events built so far
	bytes                      int64 // and their summed EventBytes
	// The column values of the block being built.
	class, proc, dur, ref [colBlock]uint64
}

// next builds the chunk's next events — a block of them, at most len(out) —
// into out and returns how many: zero, with no error, once the chunk is
// exhausted. On an error the block does not count, whatever of it out holds.
func (w *colWalk) next(out []Event) (int, error) {
	n := min(colBlock, len(out), w.c.count-w.done)
	switch {
	case !w.classes.fill(w.class[:n]):
		return 0, errTruncated(w.done, "class column")
	case !w.procs.fill(w.proc[:n]):
		return 0, errTruncated(w.done, "proc column")
	case !w.durs.fill(w.dur[:n]):
		return 0, errTruncated(w.done, "dur column")
	case !w.refs.fill(w.ref[:n]):
		return 0, errTruncated(w.done, "name column")
	}
	classes, dict := w.c.classes, w.c.dict
	starts, soff, prevStart, bytes := w.starts, w.soff, w.prevStart, w.bytes
	for j := range out[:n] {
		class, ref := w.class[j], w.ref[j]
		if class >= uint64(len(classes)) {
			return 0, fmt.Errorf("trace: decode: event %d references class %d beyond class table size %d", w.done+j, class, len(classes))
		}
		if ref >= uint64(len(dict)) {
			return 0, fmt.Errorf("trace: decode: event %d references name %d beyond dictionary size %d", w.done+j, ref, len(dict))
		}
		delta, ok := uvarint1(starts, soff)
		if ok {
			soff++
		} else if delta, soff = uvarint(starts, soff); soff < 0 {
			return 0, errTruncated(w.done+j, "start")
		}
		prevStart += zigzag(delta)
		start := vclock.Time(prevStart)
		end := start.Add(vclock.Duration(w.dur[j]))
		if end < start {
			return 0, fmt.Errorf("trace: decode: event %d duration %d overflows", w.done+j, w.dur[j])
		}
		cl := classes[class]
		e := Event{
			Kind: cl.kind, Cat: cl.cat, Overhead: cl.ov,
			Proc: ProcID(w.proc[j]), Start: start, End: end, Name: dict[ref],
		}
		out[j] = e
		bytes += int64(eventBytes(e))
	}
	w.soff, w.prevStart, w.bytes = soff, prevStart, bytes
	w.done += n
	return n, nil
}

// walk is v1Decoder.walk for a parsed columnar chunk: the one pass behind a
// decode, which builds the events where they are to stay — a walk that
// skips the markers then closes each block over the ones it built — and the
// overhead scan, which builds them a block at a time on its stack.
func (c *ColumnChunk) walk(dst []Event, bufs *recycle.Store[Event], mode walkMode, scan OverheadFunc) (out []Event, n int, bytes int64, err error) {
	w := colWalk{
		c:       c,
		classes: newColIter(c.cols[colClasses]),
		procs:   newColIter(c.cols[colProcs]),
		durs:    newColIter(c.cols[colDurs]),
		refs:    newColIter(c.cols[colNames]),
		starts:  c.cols[colStarts],
	}
	if mode == walkScan {
		var block [colBlock]Event
		for {
			m, err := w.next(block[:])
			if m == 0 {
				return dst, w.done, 0, err
			}
			for i := range block[:m] {
				if e := &block[i]; e.Kind == KindOverhead {
					scan(e.Proc, e.Start, e.Overhead, e.Name)
				}
			}
		}
	}
	dst = bufs.Reserve(dst, c.count)
	var skipped int64 // the summed EventBytes of the markers stepped over
	for {
		m, err := w.next(dst[len(dst):cap(dst)])
		if m == 0 {
			return dst, w.done, w.bytes - skipped, err
		}
		if mode == walkSkipOverhead {
			block := dst[len(dst) : len(dst)+m]
			kept := block[:0]
			for i := range block {
				if block[i].Kind == KindOverhead {
					skipped += int64(eventBytes(block[i]))
					continue
				}
				kept = append(kept, block[i])
			}
			m = len(kept)
		}
		dst = dst[:len(dst)+m]
	}
}

// Times iterates only the timestamp columns — start and end per event — for
// consumers that need extents without names or classifications.
func (c *ColumnChunk) Times(yield func(i int, start, end vclock.Time) bool) error {
	starts, soff := c.cols[colStarts], 0
	durs := newColIter(c.cols[colDurs])
	var block [colBlock]uint64
	var prevStart int64
	for i := 0; i < c.count; {
		dur := block[:min(colBlock, c.count-i)]
		if !durs.fill(dur) {
			return errTruncated(i, "dur column")
		}
		for _, d := range dur {
			var delta uint64
			if delta, soff = uvarint(starts, soff); soff < 0 {
				return errTruncated(i, "start")
			}
			prevStart += zigzag(delta)
			start := vclock.Time(prevStart)
			end := start.Add(vclock.Duration(d))
			if end < start {
				return fmt.Errorf("trace: decode: event %d duration %d overflows", i, d)
			}
			if !yield(i, start, end) {
				return nil
			}
			i++
		}
	}
	return nil
}
