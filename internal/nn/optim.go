package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba). UpdateParam exposes the
// per-parameter update so the backend can model the two deployment styles
// the paper contrasts:
//
//   - fused on-device update (tf-agents, ReAgent): a couple of kernels per
//     parameter tensor, weights never leave the GPU;
//   - stable-baselines' MPI-friendly Python Adam (paper F.4): weights are
//     copied device→host, updated on the CPU, and written back — even
//     during single-node training.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	t       int
}

// NewAdam returns Adam with standard defaults and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Name identifies the optimizer.
func (a *Adam) Name() string { return "adam" }

// BeginStep advances the timestep without touching parameters; one
// optimizer step pairs it with one UpdateParam per parameter (the backend's
// fused and MPI-Adam paths both do).
func (a *Adam) BeginStep() { a.t++ }

// UpdateParam applies Adam to a single parameter using the current timestep.
func (a *Adam) UpdateParam(p *Param) {
	if p.M == nil {
		p.M = NewTensor(p.Value.Rows, p.Value.Cols)
		p.V = NewTensor(p.Value.Rows, p.Value.Cols)
	}
	b1t := 1 - math.Pow(a.Beta1, float64(a.t))
	b2t := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, g := range p.Grad.Data {
		p.M.Data[i] = float64(a.Beta1*p.M.Data[i]) + float64((1-a.Beta1)*g)
		p.V.Data[i] = float64(a.Beta2*p.V.Data[i]) + float64((1-a.Beta2)*g*g)
		mHat := p.M.Data[i] / b1t
		vHat := p.V.Data[i] / b2t
		p.Value.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
}

// ClipGradByGlobalNorm rescales all gradients so their global L2 norm is at
// most maxNorm, returning the pre-clip norm. Standard in PPO/A2C.
func ClipGradByGlobalNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g * g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		f := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(f)
		}
	}
	return norm
}
