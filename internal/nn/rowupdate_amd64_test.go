package nn

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRowKernels holds the SSE2 row updates to their Go forms bit for bit,
// a NaN matching any NaN as in sameBits. The input is little-endian
// float64s: a0..a3, then o and b0..b3 of one length n, whatever is left
// over dropped. The seeds cover every length 0–9, so every mix of the
// four-element loop, the pair and the scalar tail runs, each over NaN, ±Inf,
// −0, subnormals and normal values. The kernels must write no element past
// len(o).
func FuzzRowKernels(f *testing.F) {
	odd := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -0x1p-1030, 0x1p-1022 - 0x1p-1074,
		math.MaxFloat64, 1, -1.5, 3.25e-7, 6.02e23,
	}
	for n := 0; n <= 9; n++ {
		for variant := 0; variant < 2; variant++ {
			vals := make([]float64, 4+5*n)
			for i := range vals {
				if variant == 0 {
					vals[i] = odd[(i*7+n)%len(odd)]
				} else {
					vals[i] = float64(i*37%19-9) / 7
				}
			}
			f.Add(encodeFloats(vals))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) < 4 {
			return
		}
		a, rest := vals[:4], vals[4:]
		n := len(rest) / 5
		o, b := rest[:n], [4][]float64{}
		for r := range b {
			b[r] = rest[(r+1)*n : (r+2)*n]
		}
		// Each output carries two sentinels past its length.
		fresh := func() []float64 {
			buf := append(append([]float64(nil), o...), 7, 7)
			return buf[:n]
		}
		check := func(name string, got, want []float64) {
			t.Helper()
			if i := sameBits(vec(got...), vec(want...)); i >= 0 {
				t.Fatalf("%s, n=%d: element %d is %v, the Go form's %v", name, n, i, got[i], want[i])
			}
			if tail := got[n : n+2]; tail[0] != 7 || tail[1] != 7 {
				t.Fatalf("%s, n=%d: wrote past the row: %v", name, n, tail)
			}
		}
		got, want := fresh(), fresh()
		rowUpdate4(got, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
		rowUpdate4Go(want, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
		check("rowUpdate4", got, want)
		got, want = fresh(), fresh()
		rowUpdate1(got, a[0], b[0])
		rowUpdate1Go(want, a[0], b[0])
		check("rowUpdate1", got, want)
	})
}

func encodeFloats(vals []float64) []byte {
	data := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
	}
	return data
}
