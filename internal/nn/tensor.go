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
// one float64, each product rounded before its add (rowupdate.go). matMul
// skips a zero a value as the loops always have; dropping the skip changes
// bits, since 0·Inf is NaN. matMulNoSkip skips none.

// matMul accumulates a @ b into out (a.Rows×b.Cols), skipping each k where
// the row of a holds a zero.
func matMul(out, a, b *Tensor) {
	checkMatMul(out, a, b)
	var buf [256]int // the list stays on the stack up to 256 columns of a
	list := buf[:]
	if a.Cols > len(buf) {
		list = make([]int, a.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		list := list[:len(arow)]
		// Every k is written and only a nonzero one kept, with no branch
		// on the value for the predictor to miss.
		nz := 0
		for k, av := range arow {
			list[nz] = k
			if av != 0 {
				nz++
			}
		}
		rowProduct(out.Row(i), arow, list[:nz], b)
	}
}

// matMulNoSkip accumulates a @ b into out as matMul does, adding every k.
// It is Dense's input gradient dZ @ Wᵀ over the layer's transposed W,
// whose loop never skipped a zero.
func matMulNoSkip(out, a, b *Tensor) {
	checkMatMul(out, a, b)
	var buf [256]int
	ks := buf[:0]
	for k := 0; k < a.Cols; k++ {
		ks = append(ks, k)
	}
	for i := 0; i < a.Rows; i++ {
		rowProduct(out.Row(i), a.Row(i), ks, b)
	}
}

func checkMatMul(out, a, b *Tensor) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d @ %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}

// rowProduct adds arow[k]·(row k of b) over the listed k, in order, into
// orow: four rows of b at a time, as (((o + p0) + p1) + p2) + p3, and the
// rest one at a time. An output narrower than four, too short for the
// kernels' lanes, keeps each element's sum in a register over the whole
// list instead: the same adds in the same order.
func rowProduct(orow, arow []float64, ks []int, b *Tensor) {
	n := b.Cols
	switch n {
	case 1:
		s := orow[0]
		for _, k := range ks {
			s += float64(arow[k] * b.Data[k])
		}
		orow[0] = s
		return
	case 2:
		s0, s1 := orow[0], orow[1]
		for _, k := range ks {
			av, bk := arow[k], b.Data[2*k:2*k+2]
			s0 += float64(av * bk[0])
			s1 += float64(av * bk[1])
		}
		orow[0], orow[1] = s0, s1
		return
	case 3:
		s0, s1, s2 := orow[0], orow[1], orow[2]
		for _, k := range ks {
			av, bk := arow[k], b.Data[3*k:3*k+3]
			s0 += float64(av * bk[0])
			s1 += float64(av * bk[1])
			s2 += float64(av * bk[2])
		}
		orow[0], orow[1], orow[2] = s0, s1, s2
		return
	}
	for ; len(ks) >= 4; ks = ks[4:] {
		k0, k1, k2, k3 := ks[0], ks[1], ks[2], ks[3]
		rowUpdate4(orow, arow[k0], arow[k1], arow[k2], arow[k3],
			b.Data[k0*n:k0*n+n], b.Data[k1*n:k1*n+n], b.Data[k2*n:k2*n+n], b.Data[k3*n:k3*n+n])
	}
	for _, k := range ks {
		rowUpdate1(orow, arow[k], b.Data[k*n:k*n+n])
	}
}

// transposeInto writes tᵀ into dst (t.Cols×t.Rows). The weight gradient
// xᵀ @ dZ is matMul over the transposed x: each element sums over x's rows
// in ascending order and skips a zero x value, as the xᵀ @ dZ loop did.
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
