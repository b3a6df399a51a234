package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/vclock"
)

// Binary trace chunk formats (paper Appendix A.1 uses protobuf; this repo is
// stdlib-only so we use compact hand-rolled encodings). Two versions exist;
// both start with the same magic, and the version field after it selects the
// decoder, so a directory may mix them freely.
//
// Version 1 (row-oriented):
//
//	magic   "RLSC"          (4 bytes)
//	version uvarint         (1)
//	count   uvarint         (number of events)
//	events  count records
//
// Each event record:
//
//	kind     byte
//	cat      byte
//	overhead byte
//	proc     uvarint
//	start    varint (delta from previous event's start; first is absolute)
//	dur      uvarint (End-Start)
//	name     uvarint string-table reference
//
// The string table is built incrementally per chunk: a reference equal to the
// current table size introduces a new string (uvarint length + bytes);
// smaller references reuse an earlier string. Operation and kernel names
// repeat heavily, so this keeps chunks small.
//
// Version 2 (columnar) is documented in columnar.go.

const (
	chunkMagic   = "RLSC"
	chunkVersion = 1
)

// v1EventBytesHint presizes a v1 frame: three header bytes, a one-byte proc,
// a two-to-four-byte start delta, a duration and a one-byte name reference
// come to 10–14 bytes for the events the profiler records. A chunk that
// needs more (wide deltas, many distinct names) grows by append.
const v1EventBytesHint = 16

// v1MinEventBytes is the smallest v1 event record: three header bytes and
// one byte each of proc, start delta, duration and name reference.
const v1MinEventBytes = 7

// EncodeChunk writes events as one v1 binary chunk to w.
func EncodeChunk(w io.Writer, events []Event) error {
	frame, err := encodeChunkV1(events)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// encodeChunkV1 is the v1 encoder into one presized frame buffer.
func encodeChunkV1(events []Event) ([]byte, error) {
	return appendChunkV1(make([]byte, 0, 16+len(events)*v1EventBytesHint), events)
}

// appendChunkV1 appends events as one v1 frame to dst.
func appendChunkV1(dst []byte, events []Event) ([]byte, error) {
	dst = append(dst, chunkMagic...)
	dst = binary.AppendUvarint(dst, chunkVersion)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	strings := map[string]uint64{}
	var ref uint64 // the previous event's string-table reference
	var prevStart int64
	for i := range events {
		e := &events[i]
		if e.End < e.Start {
			return nil, fmt.Errorf("trace: encode: event %q has negative duration", e.Name)
		}
		dst = append(dst, byte(e.Kind), byte(e.Cat), byte(e.Overhead))
		dst = binary.AppendUvarint(dst, uint64(e.Proc))
		dst = binary.AppendVarint(dst, int64(e.Start)-prevStart)
		prevStart = int64(e.Start)
		dst = binary.AppendUvarint(dst, uint64(e.End-e.Start))
		// A run of one name (a kernel relaunched, an API called in a loop)
		// reuses the previous reference without a map lookup.
		if i == 0 || e.Name != events[i-1].Name {
			var ok bool
			if ref, ok = strings[e.Name]; !ok {
				ref = uint64(len(strings))
				strings[e.Name] = ref
				dst = binary.AppendUvarint(dst, ref)
				dst = binary.AppendUvarint(dst, uint64(len(e.Name)))
				dst = append(dst, e.Name...)
				continue
			}
		}
		dst = binary.AppendUvarint(dst, ref)
	}
	return dst, nil
}

// v1Decoder holds the reusable scratch of one v1 decode: the incremental
// string table. Pooled so the compat path stops churning the allocator.
type v1Decoder struct {
	table []string
}

var v1DecPool = sync.Pool{New: func() any { return &v1Decoder{} }}

// decodeV1 decodes the body of a v1 chunk (cursor positioned after the
// version field), appending events to dst. Table strings resolve through in
// when non-nil, so repeated names across chunks share storage.
func (d *v1Decoder) decodeV1(cur *colCursor, dst []Event, in *Interner) ([]Event, error) {
	count, err := cur.uvarint("count")
	if err != nil {
		return dst, err
	}
	// Grow dst once, to the count the header states — but never past what
	// the bytes that follow could encode, so a hostile header cannot force
	// an allocation larger than its frame justifies.
	dst = slices.Grow(dst, int(min(count, uint64(len(cur.b)-cur.off)/v1MinEventBytes)))
	table := d.table[:0]
	defer func() { d.table = table }()
	var prevStart int64
	for i := uint64(0); i < count; i++ {
		var e Event
		hdr, err := cur.take(3, "event header")
		if err != nil {
			return dst, err
		}
		e.Kind = EventKind(hdr[0])
		e.Cat = Category(hdr[1])
		e.Overhead = OverheadKind(hdr[2])
		proc, err := cur.uvarint("proc")
		if err != nil {
			return dst, fmt.Errorf("trace: decode: event %d proc: %w", i, err)
		}
		e.Proc = ProcID(proc)
		delta, err := cur.varint("start")
		if err != nil {
			return dst, fmt.Errorf("trace: decode: event %d start: %w", i, err)
		}
		prevStart += delta
		e.Start = vclock.Time(prevStart)
		dur, err := cur.uvarint("dur")
		if err != nil {
			return dst, fmt.Errorf("trace: decode: event %d dur: %w", i, err)
		}
		e.End = e.Start.Add(vclock.Duration(dur))
		// A duration past MaxInt64, or one that overflows past MaxTime,
		// wraps to End < Start; valid encoders never emit either.
		if e.End < e.Start {
			return dst, fmt.Errorf("trace: decode: event %d duration %d overflows", i, dur)
		}
		ref, err := cur.uvarint("name ref")
		if err != nil {
			return dst, fmt.Errorf("trace: decode: event %d name ref: %w", i, err)
		}
		switch {
		case ref < uint64(len(table)):
			e.Name = table[ref]
		case ref == uint64(len(table)):
			slen, err := cur.uvarint("name len")
			if err != nil {
				return dst, fmt.Errorf("trace: decode: event %d name len: %w", i, err)
			}
			if slen > maxNameLen {
				return dst, fmt.Errorf("trace: decode: event %d name length %d exceeds limit", i, slen)
			}
			buf, err := cur.take(int(slen), "name bytes")
			if err != nil {
				return dst, fmt.Errorf("trace: decode: event %d name bytes: %w", i, err)
			}
			if in != nil {
				e.Name = in.Intern(buf)
			} else {
				e.Name = string(buf)
			}
			table = append(table, e.Name)
		default:
			return dst, fmt.Errorf("trace: decode: event %d references string %d beyond table size %d", i, ref, len(table))
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// sniffVersion validates the magic and reads the version field, returning a
// cursor positioned at the body.
func sniffVersion(data []byte) (version uint64, cur colCursor, err error) {
	if len(data) < len(chunkMagic) {
		return 0, cur, fmt.Errorf("trace: decode: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(chunkMagic)]) != chunkMagic {
		return 0, cur, fmt.Errorf("trace: decode: bad magic %q", data[:len(chunkMagic)])
	}
	cur = colCursor{b: data, off: len(chunkMagic)}
	version, err = cur.uvarint("version")
	if err != nil {
		return 0, cur, err
	}
	return version, cur, nil
}

// ChunkFormat sniffs the format of one encoded chunk frame.
func ChunkFormat(data []byte) (Format, error) {
	version, _, err := sniffVersion(data)
	if err != nil {
		return 0, err
	}
	f := Format(version)
	if !f.valid() {
		return 0, fmt.Errorf("trace: decode: unsupported version %d", version)
	}
	return f, nil
}

// decodeChunkBytes decodes one chunk frame of either version, appending its
// events to dst. cc, when non-nil, is the reusable column scratch for v2
// frames; names resolve through in when non-nil.
func decodeChunkBytes(data []byte, dst []Event, in *Interner, cc *ColumnChunk) ([]Event, error) {
	version, cur, err := sniffVersion(data)
	if err != nil {
		return dst, err
	}
	switch version {
	case chunkVersion:
		d := v1DecPool.Get().(*v1Decoder)
		dst, err = d.decodeV1(&cur, dst, in)
		v1DecPool.Put(d)
		return dst, err
	case chunkVersion2:
		if cc == nil {
			cc = &ColumnChunk{}
		}
		if err := cc.Parse(data, in); err != nil {
			return dst, err
		}
		return cc.AppendEvents(dst)
	default:
		return dst, fmt.Errorf("trace: decode: unsupported version %d", version)
	}
}

// DecodeChunkBytes decodes one encoded chunk frame — v1 or v2, detected from
// the frame's version field — appending its events to dst and returning the
// extended slice. It never aliases data: decoded names are fresh (or
// interner-shared) strings.
func DecodeChunkBytes(data []byte, dst []Event) ([]Event, error) {
	return decodeChunkBytes(data, dst, nil, nil)
}

// readBufPool recycles whole-frame read buffers for DecodeChunk.
var readBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// DecodeChunk reads one binary chunk from r — either format, detected from
// the version field — appending its events to dst and returning the extended
// slice.
func DecodeChunk(r io.Reader, dst []Event) ([]Event, error) {
	bp := readBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var err error
	buf, err = readAllInto(buf, r)
	if err != nil {
		*bp = buf
		readBufPool.Put(bp)
		return dst, fmt.Errorf("trace: decode: reading chunk: %w", err)
	}
	dst, err = decodeChunkBytes(buf, dst, nil, nil)
	*bp = buf
	readBufPool.Put(bp)
	return dst, err
}

// readAllInto reads r to EOF into buf's spare capacity, growing as needed.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
