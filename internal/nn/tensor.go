// Package nn is a small, pure-Go neural-network library: tensors, dense
// layers, activations, losses, and the Adam optimizer.
//
// The RL algorithms in this repository train real networks with real
// gradients through this package. The ML backend (internal/backend) wraps
// each primitive as a "device op", charging simulated GPU/CUDA time from a
// FLOP-based cost model while the math itself runs on the host — the
// substitution for CUDA kernels documented in DESIGN.md.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major 2-D matrix (the only rank RL MLPs need).
// Vectors are 1×n or n×1 tensors.
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// NewTensor allocates a zero tensor.
func NewTensor(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromVec builds a 1×n tensor copying v.
func FromVec(v []float64) *Tensor {
	t := NewTensor(1, len(v))
	copy(t.Data, v)
	return t
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// Row returns row i as a slice aliasing the tensor's storage.
func (t *Tensor) Row(i int) []float64 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// Size returns the element count.
func (t *Tensor) Size() int { return len(t.Data) }

// Bytes returns the storage footprint assuming float32 device storage (what
// a real backend would ship over PCIe).
func (t *Tensor) Bytes() int { return 4 * len(t.Data) }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero clears the tensor.
func (t *Tensor) Zero() { t.Fill(0) }

// CopyFrom copies src's contents (shapes must match).
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Rows != src.Rows || t.Cols != src.Cols {
		panic(fmt.Sprintf("nn: CopyFrom shape mismatch %dx%d vs %dx%d", t.Rows, t.Cols, src.Rows, src.Cols))
	}
	copy(t.Data, src.Data)
}

// The matmul kernels accumulate into a caller-owned out of the product's
// shape, which holds zeros or a sum to continue. They keep one summation
// order for every output element, so a kernel rewrite changes time and
// never bits: each element adds its products over k in ascending order into
// one float64, and every product is written float64(x*y), which forbids the
// compiler to fuse it with the add (arm64 would). matMul skips a zero a
// value as the loops always have; dropping the skip changes bits, since
// 0·Inf is NaN. Slices are cut to their loop length first, so the inner
// loops carry no bounds checks.

// matMul accumulates a @ b into out (a.Rows×b.Cols). Each row lists its
// nonzero k first, then adds them into the output row four at a time, as
// (((o + p0) + p1) + p2) + p3 — the four sequential adds — and the rest one
// at a time.
func matMul(out, a, b *Tensor) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d @ %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	n := b.Cols
	var buf [256]int // the list stays on the stack up to 256 columns of a
	nz := buf[:0]
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		nz = nz[:0]
		for k, av := range arow {
			if av != 0 {
				nz = append(nz, k)
			}
		}
		ks := nz
		for ; len(ks) >= 4; ks = ks[4:] {
			k0, k1, k2, k3 := ks[0], ks[1], ks[2], ks[3]
			a0, a1, a2, a3 := arow[k0], arow[k1], arow[k2], arow[k3]
			b0 := b.Data[k0*n : k0*n+n][:len(orow)]
			b1 := b.Data[k1*n : k1*n+n][:len(orow)]
			b2 := b.Data[k2*n : k2*n+n][:len(orow)]
			b3 := b.Data[k3*n : k3*n+n][:len(orow)]
			for j := range orow {
				orow[j] = orow[j] + float64(a0*b0[j]) + float64(a1*b1[j]) + float64(a2*b2[j]) + float64(a3*b3[j])
			}
		}
		for _, k := range ks {
			av := arow[k]
			brow := b.Data[k*n : k*n+n][:len(orow)]
			for j := range orow {
				orow[j] += float64(av * brow[j])
			}
		}
	}
}

// transposeInto writes tᵀ into dst (t.Cols×t.Rows). The weight gradient
// aᵀ @ b is matMul over the transposed a: each element sums over a's rows
// in ascending order and skips a zero a value, as the aᵀ @ b loop did.
func transposeInto(dst, t *Tensor) {
	if dst.Rows != t.Cols || dst.Cols != t.Rows {
		panic(fmt.Sprintf("nn: transpose %dx%d into %dx%d", t.Rows, t.Cols, dst.Rows, dst.Cols))
	}
	for r := 0; r < t.Rows; r++ {
		for c, v := range t.Row(r) {
			dst.Data[c*dst.Cols+r] = v
		}
	}
}

// matMulT2 accumulates a @ bᵀ into out (a.Rows×b.Rows): the input gradient.
// It computes four output columns at once, each with its own accumulator,
// and the last b.Rows mod 4 one at a time. It skips no zero, as it never has.
func matMulT2(out, a, b *Tensor) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmulT2 shape mismatch %dx%d, %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		j := 0
		for ; j+4 <= len(orow); j += 4 {
			b0 := b.Row(j)[:len(arow)]
			b1 := b.Row(j + 1)[:len(arow)]
			b2 := b.Row(j + 2)[:len(arow)]
			b3 := b.Row(j + 3)[:len(arow)]
			s0, s1, s2, s3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
			for k, av := range arow {
				s0 += float64(av * b0[k])
				s1 += float64(av * b1[k])
				s2 += float64(av * b2[k])
				s3 += float64(av * b3[k])
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < len(orow); j++ {
			brow := b.Row(j)[:len(arow)]
			s := orow[j]
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			orow[j] = s
		}
	}
}

// AddBias adds bias (1×n) to every row of x in place and returns x.
func AddBias(x, bias *Tensor) *Tensor {
	if bias.Rows != 1 || bias.Cols != x.Cols {
		panic("nn: bias shape mismatch")
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] += bias.Data[j]
		}
	}
	return x
}

// Scale multiplies every element by f in place and returns t.
func (t *Tensor) Scale(f float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= f
	}
	return t
}

// AddScaled adds f*src to t element-wise in place.
func (t *Tensor) AddScaled(src *Tensor, f float64) *Tensor {
	if len(t.Data) != len(src.Data) {
		panic("nn: AddScaled size mismatch")
	}
	for i := range t.Data {
		t.Data[i] += float64(f * src.Data[i])
	}
	return t
}

// XavierInit fills t with Glorot-uniform values for a layer with the given
// fan-in and fan-out.
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = (2*float64(rng.Float64()) - 1) * limit
	}
}

// ArgmaxRow returns the index of the maximum element of row i.
func (t *Tensor) ArgmaxRow(i int) int {
	row := t.Row(i)
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}
