package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation uint8

// Activations.
const (
	Identity Activation = iota
	ReLU
	Tanh
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", uint8(a))
	}
}

// Apply computes the activation element-wise into a fresh tensor.
func (a Activation) Apply(x *Tensor) *Tensor {
	out := x.Clone()
	a.apply(out)
	return out
}

// apply computes the activation element-wise in place.
func (a Activation) apply(x *Tensor) {
	switch a {
	case Identity:
	case ReLU:
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = 0
			}
		}
	case Tanh:
		for i, v := range x.Data {
			x.Data[i] = math.Tanh(v)
		}
	}
}

// gradInto writes dY multiplied element-wise by d(activation)/d(pre-
// activation), given the activation output y, into out (dY's shape).
// Identity's is dY itself, which Backward uses as it is.
func (a Activation) gradInto(out, dY, y *Tensor) {
	o, g, v := out.Data, dY.Data[:len(out.Data)], y.Data[:len(out.Data)]
	switch a {
	case ReLU:
		for i, yv := range v {
			if yv <= 0 {
				o[i] = 0
			} else {
				o[i] = g[i]
			}
		}
	case Tanh:
		for i, yv := range v {
			o[i] = g[i] * (1 - float64(yv*yv))
		}
	}
}

// Param is one trainable parameter tensor with its gradient and optimizer
// state.
type Param struct {
	Name  string
	Value *Tensor
	Grad  *Tensor
	// Adam moments, allocated lazily by the optimizer.
	M, V *Tensor
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Dense is a fully connected layer: y = act(x @ W + b).
//
// A layer is confined to one goroutine at a time: Backward reads what the
// last Forward cached, and both work in scratch the layer owns. Every tensor
// Forward and Backward return is fresh and the caller's to keep; the
// scratch never leaves the layer.
type Dense struct {
	In, Out int
	Act     Activation
	W, B    *Param

	// Forward caches for backprop.
	lastX *Tensor // input
	lastY *Tensor // post-activation output

	// Scratch reused across steps: the pre-activation gradient, the
	// transposed input, and the weight-gradient product, which is summed
	// apart and then added to W.Grad, as one product tensor always was.
	dZ, xT, dW *Tensor
}

// NewDense builds a Glorot-initialized dense layer.
func NewDense(rng *rand.Rand, in, out int, act Activation, name string) *Dense {
	w := NewTensor(in, out)
	w.XavierInit(rng, in, out)
	return &Dense{
		In: in, Out: out, Act: act,
		W:  &Param{Name: name + ".W", Value: w, Grad: NewTensor(in, out)},
		B:  &Param{Name: name + ".b", Value: NewTensor(1, out), Grad: NewTensor(1, out)},
		dW: NewTensor(in, out),
	}
}

// Forward computes the layer output for a batch x of shape [n, In].
func (d *Dense) Forward(x *Tensor) *Tensor {
	d.lastX = x
	y := NewTensor(x.Rows, d.Out)
	matMul(y, x, d.W.Value)
	AddBias(y, d.B.Value)
	d.Act.apply(y)
	d.lastY = y
	return y
}

// Backward consumes dL/dy and returns dL/dx, accumulating into W.Grad and
// B.Grad. Forward must have been called first.
func (d *Dense) Backward(dY *Tensor) *Tensor {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	dZ := dY
	if d.Act != Identity {
		d.dZ = reshape(d.dZ, dY.Rows, dY.Cols)
		dZ = d.dZ
		d.Act.gradInto(dZ, dY, d.lastY)
	}
	d.xT = reshape(d.xT, d.lastX.Cols, d.lastX.Rows)
	transposeInto(d.xT, d.lastX)
	d.dW.Zero()
	matMul(d.dW, d.xT, dZ)
	d.W.Grad.AddScaled(d.dW, 1)
	bg := d.B.Grad.Data
	for i := 0; i < dZ.Rows; i++ {
		row := dZ.Row(i)[:len(bg)]
		for j, v := range row {
			bg[j] += v
		}
	}
	dX := NewTensor(dZ.Rows, d.In)
	matMulT2(dX, dZ, d.W.Value)
	return dX
}

// reshape returns t as a rows×cols tensor, reusing its storage when it has
// the room; the contents are the caller's to overwrite.
func reshape(t *Tensor, rows, cols int) *Tensor {
	if t == nil || cap(t.Data) < rows*cols {
		return NewTensor(rows, cols)
	}
	t.Rows, t.Cols, t.Data = rows, cols, t.Data[:rows*cols]
	return t
}

// MLP is a stack of dense layers — the network shape every RL algorithm in
// the paper's survey uses (e.g. stable-baselines' default two hidden
// layers).
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes; hidden layers use act,
// the output layer uses outAct.
func NewMLP(rng *rand.Rand, sizes []int, act, outAct Activation, name string) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		a := act
		if i+2 == len(sizes) {
			a = outAct
		}
		m.Layers = append(m.Layers, NewDense(rng, sizes[i], sizes[i+1], a,
			fmt.Sprintf("%s.l%d", name, i)))
	}
	return m
}

// Params returns all trainable parameters in layer order.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.W, l.B)
	}
	return ps
}

// ZeroGrad clears all gradients.
func (m *MLP) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// CopyTo copies all parameter values into dst (same architecture) — the
// target-network update used by DQN/DDPG/TD3/SAC.
func (m *MLP) CopyTo(dst *MLP) {
	sp, dp := m.Params(), dst.Params()
	if len(sp) != len(dp) {
		panic("nn: CopyTo architecture mismatch")
	}
	for i := range sp {
		dp[i].Value.CopyFrom(sp[i].Value)
	}
}

// PolyakTo blends parameters into dst: dst = tau*src + (1-tau)*dst — the
// soft target update.
func (m *MLP) PolyakTo(dst *MLP, tau float64) {
	sp, dp := m.Params(), dst.Params()
	for i := range sp {
		for j := range dp[i].Value.Data {
			dp[i].Value.Data[j] = float64(tau*sp[i].Value.Data[j]) + float64((1-tau)*dp[i].Value.Data[j])
		}
	}
}

// NumParams returns the total scalar parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Size()
	}
	return n
}
