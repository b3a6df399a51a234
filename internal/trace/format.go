package trace

import "fmt"

// Format selects the on-disk chunk encoding a Writer emits. Decoders never
// need one: every chunk frame carries its version after the magic, and
// DecodeChunkBytes / Reader auto-detect it per chunk, so directories may
// freely mix formats.
type Format int

const (
	// FormatV1 is the original row-oriented encoding (one record per
	// event, incremental per-chunk string table). The default: every
	// pre-existing trace dir is v1, and the v1 writer path must keep
	// producing byte-identical files.
	FormatV1 Format = 1
	// FormatV2 is the columnar encoding: struct-of-arrays columns with
	// run-length-encoded kind/category/overhead/proc fields, delta+varint
	// timestamps, and a per-chunk first-appearance name dictionary. Smaller
	// at rest and decodable without materializing Event records.
	FormatV2 Format = 2
)

// String returns the flag spelling ("v1", "v2").
func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat parses the flag spelling accepted by rlscope-prof -format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "v1", "1":
		return FormatV1, nil
	case "v2", "2":
		return FormatV2, nil
	default:
		return 0, fmt.Errorf("trace: unknown format %q (want v1 or v2)", s)
	}
}

// valid reports whether f names an encodable format.
func (f Format) valid() bool { return f == FormatV1 || f == FormatV2 }
