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

// MatMul computes a @ b into a fresh tensor.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulT1 computes aᵀ @ b (used for weight gradients).
func MatMulT1(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: matmulT1 shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow, brow := a.Row(r), b.Row(r)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulT2 computes a @ bᵀ (used for input gradients).
func MatMulT2(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulT2 shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
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
		t.Data[i] += f * src.Data[i]
	}
	return t
}

// XavierInit fills t with Glorot-uniform values for a layer with the given
// fan-in and fan-out.
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = (2*rng.Float64() - 1) * limit
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
