package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"repro/internal/recycle"
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

// encodeChunkV1 is the v1 encoder into one presized frame buffer.
func encodeChunkV1(events []Event) ([]byte, error) {
	return appendChunkV1(make([]byte, 0, frameHint(len(events))), events)
}

// frameHint is the room to give a v1 frame of n events before it is
// encoded. A v2 frame needs none: its encoder sizes the frame exactly once
// the columns are built.
func frameHint(n int) int { return 16 + n*v1EventBytesHint }

// appendChunkV1 appends events as one v1 frame to dst. A record's head —
// kind, category, overhead and a proc below 128 — is one 4-byte append, and
// its start delta and duration take appendUvarint's one- and two-byte cases
// in place.
func appendChunkV1(dst []byte, events []Event) ([]byte, error) {
	dst = append(dst, chunkMagic...)
	dst = binary.AppendUvarint(dst, chunkVersion)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	strings := map[string]uint64{}
	var cache nameCache
	var prevStart int64
	for i := range events {
		e := &events[i]
		if e.End < e.Start {
			return nil, fmt.Errorf("trace: encode: event %q has negative duration", e.Name)
		}
		if proc := uint64(e.Proc); proc < 0x80 {
			dst = append(dst, byte(e.Kind), byte(e.Cat), byte(e.Overhead), byte(proc))
		} else {
			dst = append(dst, byte(e.Kind), byte(e.Cat), byte(e.Overhead))
			dst = binary.AppendUvarint(dst, proc)
		}
		// The start delta is zigzag-folded as binary.AppendVarint folds it.
		delta := int64(e.Start) - prevStart
		prevStart = int64(e.Start)
		dst = appendUvarint(dst, uint64(delta<<1)^uint64(delta>>63))
		dst = appendUvarint(dst, uint64(e.End-e.Start))
		slot := &cache[nameSlot(e.Name)]
		ref := slot.ref1 - 1
		if slot.ref1 == 0 || slot.name != e.Name {
			var ok bool
			if ref, ok = strings[e.Name]; !ok {
				ref = uint64(len(strings))
				strings[e.Name] = ref
				slot.name, slot.ref1 = e.Name, ref+1
				dst = binary.AppendUvarint(dst, ref)
				dst = binary.AppendUvarint(dst, uint64(len(e.Name)))
				dst = append(dst, e.Name...)
				continue
			}
			slot.name, slot.ref1 = e.Name, ref+1
		}
		dst = appendUvarint(dst, ref)
	}
	return dst, nil
}

// appendUvarint is binary.AppendUvarint with its one- and two-byte cases —
// nearly every reference, most start deltas and durations — written in
// place: the encoder's twin of the decoders' uvarint1 and uvarint.
func appendUvarint(dst []byte, v uint64) []byte {
	if v < 1<<7 {
		return append(dst, byte(v))
	}
	if v < 1<<14 {
		return append(dst, byte(v)|0x80, byte(v>>7))
	}
	return binary.AppendUvarint(dst, v)
}

// nameCache is a direct-mapped cache in front of a v1 encoder's per-chunk
// name map, keyed by the address of a name's bytes: most names are built
// once, so the events of one name share that address, and a hit costs a
// multiply and a string compare instead of a map lookup. A slot holds the
// reference plus one, so an empty slot matches no name, the empty name
// included. A name built per call, or equal to another at a different
// address, takes its own slot and still finds its one reference through
// the map.
type nameCache [64]struct {
	name string
	ref1 uint64
}

// nameSlot is s's slot in a nameCache: the top six bits of the Fibonacci
// hash of its bytes' address.
func nameSlot(s string) uint64 {
	return uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))) * 0x9e3779b97f4a7c15 >> 58
}

// v1Decoder holds the reusable scratch of one v1 walk: the incremental
// string table. Recycled so the compat path stops churning the allocator.
type v1Decoder struct {
	table []string
}

// v1Decoders keeps idle v1 decoders; walks at once beyond eight allocate
// afresh. A decoder whose name table outgrew maxIdleNames — a frame may
// declare a new name on every record — is dropped instead of kept.
var v1Decoders = recycle.Stack[*v1Decoder]{Max: 8}

const maxIdleNames = 1 << 16 // names one idle codec's table or maps may have held

// uvarint1 is the one-byte case of the uvarint at b[off:] — nearly every
// proc, class, run length and reference — and small enough to inline into
// the decoders' loops, which is why it is not simply the first branch of
// uvarint: on ok the value is v and the next field starts at off+1, otherwise
// uvarint decides.
func uvarint1(b []byte, off int) (v uint64, ok bool) {
	if off < len(b) && b[off] < 0x80 {
		return uint64(b[off]), true
	}
	return 0, false
}

// uvarint decodes the uvarint at b[off:] and returns it with the offset past
// it — a negative offset when the varint is truncated or overflows 64 bits.
func uvarint(b []byte, off int) (uint64, int) {
	// Two bytes — most start deltas and durations — before the general loop.
	if off+1 < len(b) && b[off] >= 0x80 && b[off+1] < 0x80 {
		return uint64(b[off]&0x7f) | uint64(b[off+1])<<7, off + 2
	}
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, -1
	}
	return v, off + n
}

// zigzag undoes the sign folding of binary.AppendVarint.
func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// errTruncated reports a field of event i that runs past its frame or
// column, or is no well-formed varint. Like every decode error it is built
// on the failing branch only.
func errTruncated(i int, what string) error {
	return fmt.Errorf("trace: decode: event %d %s: %w", i, what, io.ErrUnexpectedEOF)
}

// OverheadFunc receives one KindOverhead record from a marker scan.
type OverheadFunc func(proc ProcID, at vclock.Time, kind OverheadKind, name string)

// walkMode is what a chunk walk keeps of the records it checks.
type walkMode uint8

const (
	// walkDecode appends every record to dst as an event.
	walkDecode walkMode = iota
	// walkSkipOverhead appends every record but the KindOverhead ones,
	// which it steps over without storing.
	walkSkipOverhead
	// walkScan builds no event: the walk's OverheadFunc sees each
	// KindOverhead record, and dst comes back untouched.
	walkScan
)

// walk is the one pass over the body of a v1 chunk (b[off:] starts at the
// count field), in one of the three modes of walkMode; scan is read in
// walkScan only. The records kept are appended to dst as events, and bytes
// is their summed EventBytes; dst grows once, by bufs.Reserve. Whatever the mode, every record passes the
// same checks and n counts the records walked, so a scan or a walk that
// skips the markers accepts exactly the frames a decode accepts. Table
// strings resolve through in when non-nil, so repeated names across chunks
// share storage.
func (d *v1Decoder) walk(b []byte, off int, in *Interner, dst []Event, bufs *recycle.Store[Event], mode walkMode, scan OverheadFunc) (out []Event, n int, bytes int64, err error) {
	count, off := uvarint(b, off)
	if off < 0 {
		return dst, 0, 0, fmt.Errorf("trace: decode: reading count: %w", io.ErrUnexpectedEOF)
	}
	if mode != walkScan {
		// Grow dst once, to the count the header states — but never past
		// what the bytes that follow could encode, so a hostile header
		// cannot force an allocation larger than its frame justifies.
		dst = bufs.Reserve(dst, int(min(count, uint64(len(b)-off)/v1MinEventBytes)))
	}
	table := d.table[:0]
	defer func() { d.table = table }()
	var prevStart int64
	for ; uint64(n) < count; n++ {
		if len(b)-off < 3 {
			return dst, n, bytes, errTruncated(n, "header")
		}
		kind, cat, overhead := EventKind(b[off]), Category(b[off+1]), OverheadKind(b[off+2])
		off += 3
		proc, ok := uvarint1(b, off)
		if ok {
			off++
		} else if proc, off = uvarint(b, off); off < 0 {
			return dst, n, bytes, errTruncated(n, "proc")
		}
		delta, ok := uvarint1(b, off)
		if ok {
			off++
		} else if delta, off = uvarint(b, off); off < 0 {
			return dst, n, bytes, errTruncated(n, "start")
		}
		prevStart += zigzag(delta)
		start := vclock.Time(prevStart)
		dur, ok := uvarint1(b, off)
		if ok {
			off++
		} else if dur, off = uvarint(b, off); off < 0 {
			return dst, n, bytes, errTruncated(n, "dur")
		}
		end := start.Add(vclock.Duration(dur))
		// A duration past MaxInt64, or one that overflows past MaxTime,
		// wraps to End < Start; valid encoders never emit either.
		if end < start {
			return dst, n, bytes, fmt.Errorf("trace: decode: event %d duration %d overflows", n, dur)
		}
		ref, ok := uvarint1(b, off)
		if ok {
			off++
		} else if ref, off = uvarint(b, off); off < 0 {
			return dst, n, bytes, errTruncated(n, "name ref")
		}
		var name string
		switch {
		case ref < uint64(len(table)):
			name = table[ref]
		case ref == uint64(len(table)):
			slen, next := uvarint(b, off)
			if next < 0 {
				return dst, n, bytes, errTruncated(n, "name len")
			}
			if slen > maxNameLen {
				return dst, n, bytes, fmt.Errorf("trace: decode: event %d name length %d exceeds limit", n, slen)
			}
			if slen > uint64(len(b)-next) {
				return dst, n, bytes, errTruncated(n, "name bytes")
			}
			off = next + int(slen)
			if in != nil {
				name = in.Intern(b[next:off])
			} else {
				name = string(b[next:off])
			}
			table = append(table, name)
		default:
			return dst, n, bytes, fmt.Errorf("trace: decode: event %d references string %d beyond table size %d", n, ref, len(table))
		}
		if kind == KindOverhead && mode != walkDecode {
			if mode == walkScan {
				scan(ProcID(proc), start, overhead, name)
			}
			continue
		}
		if mode != walkScan {
			e := Event{Kind: kind, Cat: cat, Overhead: overhead, Proc: ProcID(proc), Start: start, End: end, Name: name}
			dst = append(dst, e)
			bytes += int64(eventBytes(e))
		}
	}
	if off != len(b) {
		return dst, n, bytes, errTrailing(len(b) - off)
	}
	return dst, n, bytes, nil
}

// errTrailing refuses a frame that goes on after its last record or column:
// bytes no reader would ever look at, which ingest would store and digest.
func errTrailing(n int) error {
	return fmt.Errorf("trace: decode: %d trailing bytes after the chunk", n)
}

// sniffVersion validates the magic and reads the version field, returning
// the offset of the body.
func sniffVersion(data []byte) (version uint64, body int, err error) {
	if len(data) < len(chunkMagic) {
		return 0, 0, fmt.Errorf("trace: decode: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(chunkMagic)]) != chunkMagic {
		return 0, 0, fmt.Errorf("trace: decode: bad magic %q", data[:len(chunkMagic)])
	}
	version, body = uvarint(data, len(chunkMagic))
	if body < 0 {
		return 0, 0, fmt.Errorf("trace: decode: reading version: %w", io.ErrUnexpectedEOF)
	}
	return version, body, nil
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

// walkChunk walks one chunk frame of either version in the given mode, the
// way v1Decoder.walk documents. cc, when non-nil, is the reusable column
// scratch for v2 frames; names resolve through in when non-nil. dst grows
// once, to the count the frame states as the frame bounds it, by
// bufs.Reserve: from bufs, with dst handed back to it, or by slices.Grow when
// bufs is nil.
func walkChunk(data []byte, in *Interner, cc *ColumnChunk, dst []Event, bufs *recycle.Store[Event], mode walkMode, scan OverheadFunc) (out []Event, n int, bytes int64, err error) {
	version, body, err := sniffVersion(data)
	if err != nil {
		return dst, 0, 0, err
	}
	switch version {
	case chunkVersion:
		d, ok := v1Decoders.Get()
		if !ok {
			d = new(v1Decoder)
		}
		out, n, bytes, err = d.walk(data, body, in, dst, bufs, mode, scan)
		if cap(d.table) <= maxIdleNames {
			clear(d.table) // an idle decoder holds no name alive
			v1Decoders.Put(d)
		}
		return out, n, bytes, err
	case chunkVersion2:
		if cc == nil {
			cc = &ColumnChunk{}
		}
		if err := cc.Parse(data, in); err != nil {
			return dst, 0, 0, err
		}
		return cc.walk(dst, bufs, mode, scan)
	default:
		return dst, 0, 0, fmt.Errorf("trace: decode: unsupported version %d", version)
	}
}

// DecodeChunkBytes decodes one encoded chunk frame — v1 or v2, detected from
// the frame's version field — appending its events to dst and returning the
// extended slice. It never aliases data: decoded names are fresh (or
// interner-shared) strings. When dst lacks room for the frame's events, the
// room comes from bufs.Reserve — the best fit that has it, or a new slice of
// exactly the room, with dst handed back to bufs — sized by the count the
// frame states, bounded as the decoder bounds it, at the one point where the
// decoder grows dst; with bufs nil, dst grows by slices.Grow.
func DecodeChunkBytes(data []byte, dst []Event, bufs *recycle.Store[Event]) ([]Event, error) {
	dst, _, _, err := walkChunk(data, nil, nil, dst, bufs, walkDecode, nil)
	return dst, err
}
