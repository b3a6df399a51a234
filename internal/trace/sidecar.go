package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/vclock"
)

// The sidecar (.rlsidx) encoding of a ChunkIndex — this file is its only
// writer and its only parser:
//
//	magic   "RLSX"   (4 bytes)
//	version uvarint  (1; the sidecar's own, independent of the chunk's)
//	events  uvarint
//	bytes   uvarint
//	procs   uvarint count, then per process, ProcID strictly ascending:
//	        varint proc, varint min_start, varint max_end, uvarint events
//	phases  nothing when the chunk has no phase events; otherwise one v1
//	        chunk frame (binio.go) holding them, up to the end of the file
//
// The encoding is canonical — a parsed document re-encodes to the same
// bytes — so equal indexes mean equal sidecar files and equal DirDigests.
// A file that does not start with the magic is a sidecar written before
// this encoding existed: json.Marshal of ChunkIndex, still readable.
const (
	sidecarMagic   = "RLSX"
	sidecarVersion = 1
)

// AppendBinary appends ix's sidecar encoding to dst (encoding.BinaryAppender).
// It fails only on a phase event that ends before it starts.
func (ix *ChunkIndex) AppendBinary(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, 32+24*len(ix.Procs)) // the fixed fields, in one allocation
	dst = append(dst, sidecarMagic...)
	dst = binary.AppendUvarint(dst, sidecarVersion)
	dst = binary.AppendUvarint(dst, uint64(ix.Events))
	dst = binary.AppendUvarint(dst, uint64(ix.Bytes))
	dst = binary.AppendUvarint(dst, uint64(len(ix.Procs)))
	procs := slices.AppendSeq(make([]ProcID, 0, len(ix.Procs)), maps.Keys(ix.Procs))
	slices.Sort(procs)
	for _, p := range procs {
		sp := ix.Procs[p]
		dst = binary.AppendVarint(dst, int64(p))
		dst = binary.AppendVarint(dst, int64(sp.MinStart))
		dst = binary.AppendVarint(dst, int64(sp.MaxEnd))
		dst = binary.AppendUvarint(dst, uint64(sp.Events))
	}
	if len(ix.Phases) == 0 {
		return dst, nil
	}
	return appendChunkV1(dst, ix.Phases)
}

// sidecarCursor reads the fixed fields with a sticky error, refusing what
// AppendBinary never writes: a value out of its field's range, or a varint
// padded with zero groups.
type sidecarCursor struct {
	colCursor
	err error
}

func (c *sidecarCursor) uint(what string, limit uint64) uint64 {
	if c.err != nil {
		return 0
	}
	from := c.off
	v, err := c.uvarint(what)
	switch {
	case err != nil:
		c.err = err
	case v > limit || c.off-from > 1 && c.b[c.off-1] == 0:
		c.err = fmt.Errorf("trace: sidecar: %s %d out of range or not minimally encoded", what, v)
	}
	return v
}

// int reads one signed field: binary.Varint's zigzag over uint's checks.
func (c *sidecarCursor) int(what string) int64 {
	u := c.uint(what, math.MaxUint64)
	return int64(u>>1) ^ -int64(u&1)
}

// parseSidecar parses one sidecar file of either encoding into ix, reusing
// ix.Procs and ix.Phases; phase names resolve through in when non-nil. On
// error ix is undefined and the caller falls back to decoding the chunk.
func parseSidecar(data []byte, ix *ChunkIndex, in *Interner) error {
	procs, phases := ix.Procs, ix.Phases[:0]
	if procs == nil {
		procs = map[ProcID]ProcSpan{}
	}
	clear(procs)
	*ix = ChunkIndex{Procs: procs, Phases: phases}
	if !bytes.HasPrefix(data, []byte(sidecarMagic)) { // a pre-binary JSON document
		if err := json.Unmarshal(data, ix); err != nil {
			return fmt.Errorf("trace: sidecar: %w", err)
		}
		if ix.Version != sidecarVersion {
			return fmt.Errorf("trace: sidecar: unsupported version %d", ix.Version)
		}
		return nil
	}
	c := sidecarCursor{colCursor: colCursor{b: data, off: len(sidecarMagic)}}
	if v := c.uint("version", math.MaxUint64); c.err == nil && v != sidecarVersion {
		return fmt.Errorf("trace: sidecar: unsupported version %d", v)
	}
	ix.Version = sidecarVersion
	ix.Events = int(c.uint("events", math.MaxInt))
	ix.Bytes = int64(c.uint("bytes", math.MaxInt64))
	// A hostile count ends at the first missing byte: the map grows only
	// with entries the input actually holds.
	prev := int64(math.MinInt32) - 1
	for n := c.uint("proc count", math.MaxInt); n > 0 && c.err == nil; n-- {
		proc := c.int("proc")
		var sp ProcSpan
		sp.MinStart = vclock.Time(c.int("min_start"))
		sp.MaxEnd = vclock.Time(c.int("max_end"))
		sp.Events = int(c.uint("proc events", math.MaxInt))
		if c.err == nil && (proc <= prev || proc > math.MaxInt32) {
			c.err = fmt.Errorf("trace: sidecar: proc %d out of order or range", proc)
		}
		prev = proc
		ix.Procs[ProcID(proc)] = sp
	}
	if c.err != nil || c.off == len(data) {
		return c.err
	}
	// The rest is the phase events' frame. It must be the very bytes
	// AppendBinary writes for them — which also refuses trailing bytes, a
	// v2 frame, an empty frame and padded varints inside it.
	frame := data[c.off:]
	var err error
	if ix.Phases, _, _, err = walkChunk(frame, in, nil, ix.Phases, nil, walkDecode, nil); err != nil {
		return err
	}
	if again, err := encodeChunkV1(ix.Phases); err != nil || len(ix.Phases) == 0 || !bytes.Equal(again, frame) {
		return fmt.Errorf("trace: sidecar: phase frame is not canonical")
	}
	return nil
}
