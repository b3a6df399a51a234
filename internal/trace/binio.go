package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

// EncodeChunk writes events as one v1 binary chunk to w.
func EncodeChunk(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(chunkMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(chunkVersion); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(events))); err != nil {
		return err
	}
	strings := map[string]uint64{}
	var prevStart int64
	for _, e := range events {
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(e.Cat)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(e.Overhead)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.Proc)); err != nil {
			return err
		}
		if err := putVarint(int64(e.Start) - prevStart); err != nil {
			return err
		}
		prevStart = int64(e.Start)
		if e.End < e.Start {
			return fmt.Errorf("trace: encode: event %q has negative duration", e.Name)
		}
		if err := putUvarint(uint64(e.End - e.Start)); err != nil {
			return err
		}
		ref, ok := strings[e.Name]
		if !ok {
			ref = uint64(len(strings))
			strings[e.Name] = ref
			if err := putUvarint(ref); err != nil {
				return err
			}
			if err := putUvarint(uint64(len(e.Name))); err != nil {
				return err
			}
			if _, err := bw.WriteString(e.Name); err != nil {
				return err
			}
		} else if err := putUvarint(ref); err != nil {
			return err
		}
	}
	return bw.Flush()
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
