package nn

import "math"

// MSELoss returns the mean-squared-error loss and dL/dpred for a batch of
// predictions against targets (same shape). The gradient is scaled by
// 2/(n·m) so it is the exact derivative of the mean.
func MSELoss(pred, target *Tensor) (float64, *Tensor) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSELoss shape mismatch")
	}
	n := float64(pred.Size())
	grad := NewTensor(pred.Rows, pred.Cols)
	var loss float64
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += float64(d * d)
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// HuberLoss is the smooth-L1 loss used by DQN, with delta=1.
func HuberLoss(pred, target *Tensor) (float64, *Tensor) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: HuberLoss shape mismatch")
	}
	n := float64(pred.Size())
	grad := NewTensor(pred.Rows, pred.Cols)
	var loss float64
	for i, p := range pred.Data {
		d := p - target.Data[i]
		if math.Abs(d) <= 1 {
			loss += float64(0.5 * d * d)
			grad.Data[i] = d / n
		} else {
			loss += math.Abs(d) - 0.5
			grad.Data[i] = math.Copysign(1, d) / n
		}
	}
	return loss / n, grad
}

// Softmax computes row-wise softmax into a fresh tensor.
func Softmax(x *Tensor) *Tensor {
	out := NewTensor(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		SoftmaxRow(out.Row(i), x.Row(i))
	}
	return out
}

// SoftmaxRow writes the softmax of the nonempty row x into dst, which has
// x's length and may be x itself.
func SoftmaxRow(dst, x []float64) {
	dst = dst[:len(x)]
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range x {
		e := math.Exp(v - maxv)
		dst[j] = e
		sum += e
	}
	for j := range dst {
		dst[j] /= sum
	}
}

// LogSoftmax computes row-wise log-softmax into a fresh tensor.
func LogSoftmax(x *Tensor) *Tensor {
	out := NewTensor(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row, orow := x.Row(i), out.Row(i)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		lse := maxv + math.Log(sum)
		for j, v := range row {
			orow[j] = v - lse
		}
	}
	return out
}

// PolicyGradientLoss computes the categorical policy-gradient loss
// −mean(advantage·log π(a)) for logits, chosen actions, and advantages, plus
// an entropy bonus with coefficient entCoef. It returns the loss and
// dL/dlogits — the update A2C and PPO's policy head uses.
func PolicyGradientLoss(logits *Tensor, actions []int, advantages []float64, entCoef float64) (float64, *Tensor) {
	if logits.Rows != len(actions) || logits.Rows != len(advantages) {
		panic("nn: PolicyGradientLoss batch mismatch")
	}
	n := float64(logits.Rows)
	probs := Softmax(logits)
	logp := LogSoftmax(logits)
	grad := NewTensor(logits.Rows, logits.Cols)
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		a := actions[i]
		adv := advantages[i]
		loss -= float64(adv * logp.At(i, a))
		// Entropy bonus: H = −Σ p·logp; loss −= entCoef·H.
		var h float64
		for j := 0; j < logits.Cols; j++ {
			p := probs.At(i, j)
			if p > 1e-12 {
				h -= float64(p * logp.At(i, j))
			}
		}
		loss -= float64(entCoef * h)
		// d(−adv·logp_a)/dlogit_j = adv·(p_j − 1[j==a])
		// d(−entCoef·H)/dlogit_j = entCoef·p_j·(logp_j + H)
		for j := 0; j < logits.Cols; j++ {
			p := probs.At(i, j)
			g := float64(adv * p)
			if j == a {
				g -= adv
			}
			g += float64(entCoef * p * (logp.At(i, j) + h))
			grad.Set(i, j, g/n)
		}
	}
	return loss / n, grad
}
