package trace

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/disk"
)

// ConvertStats reports what a directory conversion did.
type ConvertStats struct {
	// Chunks and Events count what was re-encoded.
	Chunks, Events int
	// SrcChunkBytes and DstChunkBytes total the chunk-file sizes on each
	// side — the at-rest size comparison (sidecars and metadata excluded;
	// they are format-independent).
	SrcChunkBytes, DstChunkBytes int64
	// SrcDigest is DirDigest of the source; DstDigest of the destination.
	SrcDigest, DstDigest string
}

// Ratio returns the at-rest chunk-size ratio dst/src (1.0 when src is
// empty).
func (s *ConvertStats) Ratio() float64 {
	if s.SrcChunkBytes == 0 {
		return 1
	}
	return float64(s.DstChunkBytes) / float64(s.SrcChunkBytes)
}

// ConvertDir rewrites the trace directory src into dst with every chunk
// re-encoded columnar (v2), preserving chunk boundaries, sequence numbers,
// sidecar indexes, and metadata. dst must not already contain trace files.
//
// ConvertDir proves event equivalence through DirDigest: while converting it
// re-encodes each chunk's decoded events back into the chunk's original
// format and folds the resulting frames (with their derived sidecars and the
// re-marshalled metadata) into a running digest with DirDigest's exact
// framing. Both of this package's encoders are canonical — equal event lists
// encode to equal bytes — so for any directory this package wrote, that
// round-trip digest equals DirDigest(src) if and only if every event survived
// the conversion intact. A mismatch fails the conversion before dst is
// sealed, so dst then has no meta.json and does not open as a trace.
// (Foreign v1 files produced by a non-canonical encoder would fail
// verification spuriously; none exist in practice.)
//
// ctx is checked before each chunk: once it is done, ConvertDir converts no
// further chunk and returns ctx's error, leaving dst unsealed.
func ConvertDir(ctx context.Context, src, dst string) (*ConvertStats, error) {
	r, err := OpenDir(src)
	if err != nil {
		return nil, err
	}
	sink, err := NewDirSink(dst)
	if err != nil {
		return nil, err
	}
	stats := &ConvertStats{}
	if stats.SrcDigest, err = DirDigest(src); err != nil {
		return nil, fmt.Errorf("trace: convert: digesting source: %w", err)
	}
	round := newDigester()
	var events []Event
	for i := 0; i < r.NumChunks(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		frame, err := r.load(i)
		if err != nil {
			return nil, err
		}
		srcFormat, err := ChunkFormat(frame)
		if err != nil {
			return nil, &ChunkError{Dir: src, Chunk: r.ChunkName(i), Err: err}
		}
		stats.SrcChunkBytes += int64(len(frame))
		events, err = r.ReadChunk(i, events[:0])
		if err != nil {
			return nil, err
		}
		stats.Chunks++
		stats.Events += len(events)
		chunk, ix, err := EncodeEventsFormat(events, FormatV2)
		if err != nil {
			return nil, err
		}
		stats.DstChunkBytes += int64(len(chunk))
		if err := sink.AppendChunk(i, chunk, ix); err != nil {
			return nil, err
		}
		back, backIx, err := EncodeEventsFormat(events, srcFormat)
		if err != nil {
			return nil, fmt.Errorf("trace: convert: re-encoding chunk %d: %w", i, err)
		}
		// The sidecar is re-derived in the encoding the source's one has: a
		// pre-binary JSON document marshals as it always did.
		sidecar, err := backIx.AppendBinary(nil)
		if old, rerr := disk.OS.ReadFile(r.sidePaths[i], nil); rerr == nil && !bytes.HasPrefix(old, []byte(sidecarMagic)) {
			sidecar, err = json.Marshal(backIx)
		}
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf(chunkFilePattern, i)
		round.file(sidecarPath(name), sidecar)
		round.file(name, back)
	}
	metaData, err := json.MarshalIndent(r.Meta(), "", "  ")
	if err != nil {
		return nil, err
	}
	round.file(metaFileName, metaData)
	if got := hex.EncodeToString(round.h.Sum(nil)); got != stats.SrcDigest {
		return stats, fmt.Errorf("trace: convert: round-trip digest %s does not match source digest %s — events not preserved", got, stats.SrcDigest)
	}
	if err := sink.Seal(r.Meta()); err != nil {
		return nil, err
	}
	stats.DstDigest = sink.Digest()
	return stats, nil
}
