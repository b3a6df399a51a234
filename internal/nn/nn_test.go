package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The reference kernels are the loops the kernels replaced, written the
// plain way: a fresh zero output, k ascending per element, a zero a value
// skipped in refMatMul and refMatMulT1 and not in refMatMulT2.
func refMatMul(a, b *Tensor) *Tensor {
	out := NewTensor(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Set(i, j, out.At(i, j)+float64(av*b.At(k, j)))
			}
		}
	}
	return out
}

func refMatMulT1(a, b *Tensor) *Tensor {
	out := NewTensor(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		for i := 0; i < a.Cols; i++ {
			av := a.At(r, i)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Set(i, j, out.At(i, j)+float64(av*b.At(r, j)))
			}
		}
	}
	return out
}

func refMatMulT2(a, b *Tensor) *Tensor {
	out := NewTensor(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k) * b.At(j, k))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// The kernels' fresh-output forms, for the tests; kMatMulT1 is Dense's
// weight gradient, matMul over the transposed a, and kMatMulT2 its input
// gradient, matMulNoSkip over the transposed b.
func kMatMul(a, b *Tensor) *Tensor {
	out := NewTensor(a.Rows, b.Cols)
	matMul(out, a, b)
	return out
}

func kMatMulT1(a, b *Tensor) *Tensor {
	aT := NewTensor(a.Cols, a.Rows)
	transposeInto(aT, a)
	return kMatMul(aT, b)
}

func kMatMulT2(a, b *Tensor) *Tensor {
	bT := NewTensor(b.Cols, b.Rows)
	transposeInto(bT, b)
	out := NewTensor(a.Rows, b.Rows)
	matMulNoSkip(out, a, bT)
	return out
}

// sameBits reports the first element where got and want differ in bits, or
// -1. A NaN matches any NaN: which operand's payload an add propagates is
// the hardware's rule applied to the operand order the compiler picks, and
// Go does not fix that order for a commutative add.
func sameBits(got, want *Tensor) int {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return 0
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// specialFill fills t with normal values, a fifth of them replaced by one of
// 0, −0, ±Inf and NaN when specials is set, and a further fifth by 0 so the
// zero skip and the nonzero pairing both run.
func specialFill(rng *rand.Rand, t *Tensor, specials bool) {
	odd := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range t.Data {
		switch r := rng.Intn(10); {
		case r < 2 && specials:
			t.Data[i] = odd[rng.Intn(len(odd))]
		case r < 4:
			t.Data[i] = 0
		default:
			t.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := &Tensor{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Tensor{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := kMatMul(a, b)
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
	for name, f := range map[string]func(){
		"matMul":    func() { matMul(NewTensor(2, 3), NewTensor(2, 3), NewTensor(2, 3)) },
		"transpose": func() { transposeInto(NewTensor(3, 3), NewTensor(2, 3)) },
		"noSkip":    func() { matMulNoSkip(NewTensor(2, 2), NewTensor(2, 3), NewTensor(2, 2)) },
		"out":       func() { matMul(NewTensor(2, 2), NewTensor(2, 3), NewTensor(3, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

// TestKernelsMatchReference holds the kernels to the naive loops bit for
// bit over random shapes — one row, fewer than four output columns, odd
// and even k — with 0, −0, ±Inf and NaN injected: the blocking and the
// nonzero pairing change time, never a bit.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 400; trial++ {
		n, k, m := 1+rng.Intn(9), 1+rng.Intn(11), 1+rng.Intn(10)
		if trial%4 == 0 {
			n = 1
		}
		specials := trial%2 == 1
		a, b := NewTensor(n, k), NewTensor(k, m)
		specialFill(rng, a, specials)
		specialFill(rng, b, specials)
		if i := sameBits(kMatMul(a, b), refMatMul(a, b)); i >= 0 {
			t.Fatalf("trial %d: matMul %dx%d @ %dx%d differs at %d", trial, n, k, k, m, i)
		}
		c := NewTensor(n, m)
		specialFill(rng, c, specials)
		if i := sameBits(kMatMulT1(a, c), refMatMulT1(a, c)); i >= 0 {
			t.Fatalf("trial %d: weight gradient %dx%d, %dx%d differs at %d", trial, n, k, n, m, i)
		}
		d := NewTensor(m, k)
		specialFill(rng, d, specials)
		if i := sameBits(kMatMulT2(a, d), refMatMulT2(a, d)); i >= 0 {
			t.Fatalf("trial %d: input gradient %dx%d, %dx%d differs at %d", trial, n, k, m, k, i)
		}
	}
	// A row of a longer than the k list the kernels keep on the stack.
	a, b, d := NewTensor(3, 300), NewTensor(300, 6), NewTensor(6, 300)
	specialFill(rng, a, true)
	specialFill(rng, b, true)
	specialFill(rng, d, true)
	if sameBits(kMatMul(a, b), refMatMul(a, b)) >= 0 || sameBits(kMatMulT2(a, d), refMatMulT2(a, d)) >= 0 {
		t.Fatal("a 300-wide row of a differs from the reference")
	}
}

// TestKernelsAccumulate checks that a kernel adds to what out holds, in the
// order out + (the sum over k), the contract Dense's weight gradient relies
// on when it sums into its own scratch first.
func TestKernelsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a, b := NewTensor(3, 5), NewTensor(5, 6)
	specialFill(rng, a, false)
	specialFill(rng, b, false)
	out := NewTensor(3, 6)
	matMul(out, a, b)
	matMul(out, a, b)
	want := refMatMul(a, b)
	want.AddScaled(refMatMul(a, b), 1)
	for i := range want.Data {
		if math.Abs(out.Data[i]-want.Data[i]) > 1e-9*math.Max(1, math.Abs(want.Data[i])) {
			t.Fatalf("matMul twice into one out: %v at %d, want %v", out.Data[i], i, want.Data[i])
		}
	}
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
	want := kMatMul(at, b)
	got := kMatMulT1(a, b)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatalf("weight gradient disagrees at %d: %v vs %v", i, got.Data[i], want.Data[i])
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
	want2 := kMatMul(a, ct)
	got2 := kMatMulT2(a, c)
	for i := range want2.Data {
		if math.Abs(want2.Data[i]-got2.Data[i]) > 1e-12 {
			t.Fatalf("input gradient disagrees at %d", i)
		}
	}
}

// Apply computes the activation element-wise into a fresh tensor.
func (a Activation) Apply(x *Tensor) *Tensor {
	out := x.Clone()
	a.apply(out)
	return out
}

// vec builds a 1×n tensor over v.
func vec(v ...float64) *Tensor { return &Tensor{Rows: 1, Cols: len(v), Data: v} }

func TestActivations(t *testing.T) {
	x := vec(-1, 0, 2)
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
		dOut = m.Layers[i].Backward(dOut, true)
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
	p := &Param{Value: vec(1), Grad: vec(0.3)}
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
	pred := vec(0.5, 3)
	target := vec(0, 0)
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
	p := &Param{Value: vec(0, 0), Grad: vec(3, 4)}
	norm := ClipGradByGlobalNorm([]*Param{p}, 1.0)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if math.Abs(p.Grad.Data[0]-0.6) > 1e-12 || math.Abs(p.Grad.Data[1]-0.8) > 1e-12 {
		t.Fatalf("clipped grad = %v", p.Grad.Data)
	}
	// Below the bound: untouched.
	p2 := &Param{Value: vec(0), Grad: vec(0.1)}
	ClipGradByGlobalNorm([]*Param{p2}, 1.0)
	if p2.Grad.Data[0] != 0.1 {
		t.Fatal("clip modified in-bound gradient")
	}
}

func TestTensorHelpers(t *testing.T) {
	x := vec(1, -5, 3)
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

// TestMLPStepAllocs pins a warm forward and backward step of a three-layer
// MLP at zero allocations each way: the output Forward returns, the input
// gradient Backward returns, the pre-activation gradient, the transposed
// input and W and the weight-gradient product all live in the layer.
func TestMLPStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewMLP(rng, []int{11, 64, 64, 3}, Tanh, Identity, "pi")
	x, dOut := NewTensor(32, 11), NewTensor(32, 3)
	specialFill(rng, x, false)
	specialFill(rng, dOut, false)
	forward(m, x)
	backward(m, dOut)
	if n := testing.AllocsPerRun(100, func() { forward(m, x) }); n != 0 {
		t.Errorf("forward: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { backward(m, dOut) }); n != 0 {
		t.Errorf("backward: %v allocations, want 0", n)
	}
}

// TestDenseMatchesReference runs a Dense layer's forward and backward steps
// at changing batch sizes, so its scratch is reused, regrown and resliced,
// against the same step built from the reference kernels and fresh tensors,
// bit for bit.
func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, act := range []Activation{Identity, ReLU, Tanh} {
		d := NewDense(rng, 7, 5, act, "d")
		wGrad, bGrad := NewTensor(7, 5), NewTensor(1, 5)
		// The last two batches skip the input gradient, which must leave
		// the parameter gradients as they would be with it.
		for k, rows := range []int{4, 1, 9, 4, 2, 3, 10} {
			x, dY := NewTensor(rows, 7), NewTensor(rows, 5)
			specialFill(rng, x, false)
			specialFill(rng, dY, false)
			z := refMatMul(x, d.W.Value)
			AddBias(z, d.B.Value)
			y := act.Apply(z)
			if i := sameBits(d.Forward(x), y); i >= 0 {
				t.Fatalf("%v, %d rows: Forward differs at %d", act, rows, i)
			}
			dZ := dY.Clone()
			for i, yv := range y.Data {
				switch {
				case act == ReLU && yv <= 0:
					dZ.Data[i] = 0
				case act == Tanh:
					dZ.Data[i] *= 1 - float64(yv*yv)
				}
			}
			wGrad.AddScaled(refMatMulT1(x, dZ), 1)
			for i := 0; i < rows; i++ {
				for j, v := range dZ.Row(i) {
					bGrad.Data[j] += v
				}
			}
			if k >= 5 {
				if dX := d.Backward(dY, false); dX != nil {
					t.Fatalf("%v, %d rows: Backward without the input gradient returned one", act, rows)
				}
			} else if i := sameBits(d.Backward(dY, true), refMatMulT2(dZ, d.W.Value)); i >= 0 {
				t.Fatalf("%v, %d rows: Backward differs at %d", act, rows, i)
			}
			if sameBits(d.W.Grad, wGrad) >= 0 || sameBits(d.B.Grad, bGrad) >= 0 {
				t.Fatalf("%v, %d rows: the accumulated gradients differ", act, rows)
			}
		}
	}
}
