package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulKnownValues(t *testing.T) {
	a := &Tensor{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Tensor{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := MatMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	MatMul(NewTensor(2, 3), NewTensor(2, 3))
}

func TestMatMulTransposesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := NewTensor(4, 3), NewTensor(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	// aᵀ @ b computed two ways.
	at := NewTensor(3, 4)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	got := MatMulT1(a, b)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatalf("MatMulT1 disagrees at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	// a @ cᵀ two ways.
	c := NewTensor(6, 3)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	ct := NewTensor(3, 6)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	want2 := MatMul(a, ct)
	got2 := MatMulT2(a, c)
	for i := range want2.Data {
		if math.Abs(want2.Data[i]-got2.Data[i]) > 1e-12 {
			t.Fatalf("MatMulT2 disagrees at %d", i)
		}
	}
}

func TestActivations(t *testing.T) {
	x := FromVec([]float64{-1, 0, 2})
	r := ReLU.Apply(x)
	if r.At(0, 0) != 0 || r.At(0, 1) != 0 || r.At(0, 2) != 2 {
		t.Fatalf("relu = %v", r.Data)
	}
	th := Tanh.Apply(x)
	if math.Abs(th.At(0, 2)-math.Tanh(2)) > 1e-12 {
		t.Fatalf("tanh = %v", th.Data)
	}
	id := Identity.Apply(x)
	if id.At(0, 0) != -1 {
		t.Fatalf("identity = %v", id.Data)
	}
}

// forward and backward run m's Dense layers in order and in reverse, the
// loops backend.Comp's Forward and Backward wrap in device ops.
func forward(m *MLP, x *Tensor) *Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

func backward(m *MLP, dOut *Tensor) {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dOut = m.Layers[i].Backward(dOut)
	}
}

// numericalGrad estimates dLoss/dparam by central differences.
func numericalGrad(f func() float64, v *float64) float64 {
	const eps = 1e-6
	orig := *v
	*v = orig + eps
	up := f()
	*v = orig - eps
	down := f()
	*v = orig
	return (up - down) / (2 * eps)
}

// TestMLPGradientsMatchNumerical is the core correctness test: analytic
// backprop through a 2-hidden-layer MLP must match finite differences.
func TestMLPGradientsMatchNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMLP(rng, []int{3, 8, 6, 2}, Tanh, Identity, "net")
	x := NewTensor(4, 3)
	target := NewTensor(4, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	lossOf := func() float64 {
		l, _ := MSELoss(forward(m, x), target)
		return l
	}
	m.ZeroGrad()
	_, grad := MSELoss(forward(m, x), target)
	backward(m, grad)

	for _, p := range m.Params() {
		// Spot-check a handful of coordinates per parameter.
		idxs := []int{0, len(p.Value.Data) / 2, len(p.Value.Data) - 1}
		for _, idx := range idxs {
			got := p.Grad.Data[idx]
			want := numericalGrad(lossOf, &p.Value.Data[idx])
			if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want))+1e-7 {
				t.Fatalf("%s[%d]: analytic %g vs numerical %g", p.Name, idx, got, want)
			}
		}
	}
}

func TestReLUGradientNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, []int{4, 10, 1}, ReLU, Identity, "relu-net")
	x := NewTensor(3, 4)
	target := NewTensor(3, 1)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() + 0.1 // avoid exact kink
	}
	lossOf := func() float64 {
		l, _ := MSELoss(forward(m, x), target)
		return l
	}
	m.ZeroGrad()
	_, grad := MSELoss(forward(m, x), target)
	backward(m, grad)
	p := m.Layers[0].W
	got := p.Grad.Data[3]
	want := numericalGrad(lossOf, &p.Value.Data[3])
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want))+1e-7 {
		t.Fatalf("relu grad: analytic %g vs numerical %g", got, want)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, []int{2, 16, 1}, Tanh, Identity, "net")
	opt := NewAdam(0.01)
	// Learn f(x) = x0 + 2*x1.
	x := NewTensor(32, 2)
	y := NewTensor(32, 1)
	for i := 0; i < 32; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, a+2*b)
	}
	first, _ := MSELoss(forward(m, x), y)
	var last float64
	for it := 0; it < 300; it++ {
		m.ZeroGrad()
		pred := forward(m, x)
		var grad *Tensor
		last, grad = MSELoss(pred, y)
		backward(m, grad)
		opt.BeginStep()
		for _, p := range m.Params() {
			opt.UpdateParam(p)
		}
	}
	if last > first/10 {
		t.Fatalf("Adam training failed to reduce loss: %g -> %g", first, last)
	}
}

func TestAdamMatchesManualFirstStep(t *testing.T) {
	p := &Param{Value: FromVec([]float64{1}), Grad: FromVec([]float64{0.3})}
	a := NewAdam(0.1)
	a.BeginStep()
	a.UpdateParam(p)
	// After one step with bias correction, Adam moves by ~lr*sign(g).
	want := 1 - 0.1*0.3/(math.Sqrt(0.3*0.3)+a.Epsilon)
	if math.Abs(p.Value.Data[0]-want) > 1e-9 {
		t.Fatalf("adam first step = %v, want %v", p.Value.Data[0], want)
	}
}

func TestPolyakAndCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewMLP(rng, []int{2, 3, 1}, Tanh, Identity, "a")
	b := NewMLP(rng, []int{2, 3, 1}, Tanh, Identity, "b")
	a.CopyTo(b)
	for i, p := range a.Params() {
		for j := range p.Value.Data {
			if b.Params()[i].Value.Data[j] != p.Value.Data[j] {
				t.Fatal("CopyTo did not copy")
			}
		}
	}
	before := b.Params()[0].Value.Data[0]
	a.Params()[0].Value.Data[0] = before + 1
	a.PolyakTo(b, 0.25)
	want := 0.25*(before+1) + 0.75*before
	if math.Abs(b.Params()[0].Value.Data[0]-want) > 1e-12 {
		t.Fatalf("polyak = %v, want %v", b.Params()[0].Value.Data[0], want)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(vals [6]float64) bool {
		x := NewTensor(2, 3)
		for i, v := range vals {
			x.Data[i] = math.Mod(v, 20) // keep magnitudes sane
		}
		s := Softmax(x)
		for i := 0; i < 2; i++ {
			var sum float64
			for j := 0; j < 3; j++ {
				p := s.At(i, j)
				if p < 0 || p > 1 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLogSoftmaxConsistentWithSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := NewTensor(3, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 3
	}
	s, ls := Softmax(x), LogSoftmax(x)
	for i := range s.Data {
		if math.Abs(math.Log(s.Data[i])-ls.Data[i]) > 1e-9 {
			t.Fatalf("log(softmax) != logsoftmax at %d", i)
		}
	}
}

func TestPolicyGradientLossGradNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := NewTensor(3, 4)
	for i := range logits.Data {
		logits.Data[i] = rng.NormFloat64()
	}
	actions := []int{1, 0, 3}
	advs := []float64{0.5, -1.2, 2.0}
	const entCoef = 0.01
	_, grad := PolicyGradientLoss(logits, actions, advs, entCoef)
	for _, idx := range []int{0, 5, 11} {
		lossOf := func() float64 {
			l, _ := PolicyGradientLoss(logits, actions, advs, entCoef)
			return l
		}
		want := numericalGrad(lossOf, &logits.Data[idx])
		if math.Abs(grad.Data[idx]-want) > 1e-6 {
			t.Fatalf("pg grad[%d]: analytic %g vs numerical %g", idx, grad.Data[idx], want)
		}
	}
}

func TestHuberLossQuadraticAndLinearRegions(t *testing.T) {
	pred := FromVec([]float64{0.5, 3})
	target := FromVec([]float64{0, 0})
	loss, grad := HuberLoss(pred, target)
	want := (0.5*0.25 + (3 - 0.5)) / 2
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("huber loss = %v, want %v", loss, want)
	}
	if math.Abs(grad.Data[0]-0.25) > 1e-12 || math.Abs(grad.Data[1]-0.5) > 1e-12 {
		t.Fatalf("huber grad = %v", grad.Data)
	}
}

func TestClipGradByGlobalNorm(t *testing.T) {
	p := &Param{Value: FromVec([]float64{0, 0}), Grad: FromVec([]float64{3, 4})}
	norm := ClipGradByGlobalNorm([]*Param{p}, 1.0)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if math.Abs(p.Grad.Data[0]-0.6) > 1e-12 || math.Abs(p.Grad.Data[1]-0.8) > 1e-12 {
		t.Fatalf("clipped grad = %v", p.Grad.Data)
	}
	// Below the bound: untouched.
	p2 := &Param{Value: FromVec([]float64{0}), Grad: FromVec([]float64{0.1})}
	ClipGradByGlobalNorm([]*Param{p2}, 1.0)
	if p2.Grad.Data[0] != 0.1 {
		t.Fatal("clip modified in-bound gradient")
	}
}

func TestTensorHelpers(t *testing.T) {
	x := FromVec([]float64{1, -5, 3})
	if x.ArgmaxRow(0) != 2 {
		t.Fatalf("ArgmaxRow = %d", x.ArgmaxRow(0))
	}
	if x.Bytes() != 12 {
		t.Fatalf("Bytes = %d", x.Bytes())
	}
	c := x.Clone()
	c.Set(0, 0, 99)
	if x.At(0, 0) == 99 {
		t.Fatal("Clone aliases storage")
	}
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatalf("Zero left %v", x.Data)
		}
	}
}

func TestMLPNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP(rng, []int{10, 20, 5}, ReLU, Identity, "n")
	if m.NumParams() != 10*20+20+20*5+5 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
}
