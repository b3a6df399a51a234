package backend

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/vclock"
)

// Network is an MLP whose parameters live on the simulated device. All
// forward/backward execution goes through a Comp so the execution model can
// time it.
type Network struct {
	MLP *nn.MLP

	// The op names its calls issue, built once so that a call
	// concatenates nothing.
	layers                    []layerOps
	adam                      []string // per parameter, in Params order
	zeroGrad, polyak, tgtCopy string
	// MPIAdamApply's two calls, and its flatten and assign ops per
	// parameter.
	mpiFetch, mpiAssign string
	gradFlatten, assign []string
}

// layerOps are one dense layer's op names, each under the prefix
// "<network>/dense<i>".
type layerOps struct {
	linearAct, matmul, biasAdd, act                       string // Forward
	linearBackward, actGrad, matmulDW, matmulDX, biasGrad string // Backward
}

// NewNetwork builds a device-resident MLP.
func NewNetwork(rng *rand.Rand, name string, sizes []int, act, outAct nn.Activation) *Network {
	net := &Network{
		MLP:       nn.NewMLP(rng, sizes, act, outAct, name),
		zeroGrad:  name + "/zero_grad",
		polyak:    name + "/polyak",
		tgtCopy:   name + "/target_copy",
		mpiFetch:  name + "/mpi_adam/fetch_grads",
		mpiAssign: name + "/mpi_adam/assign_weights",
	}
	for i, l := range net.MLP.Layers {
		prefix := fmt.Sprintf("%s/dense%d", name, i)
		net.layers = append(net.layers, layerOps{
			linearAct:      prefix + "/linear_act",
			matmul:         prefix + "/matmul",
			biasAdd:        prefix + "/bias_add",
			act:            prefix + "/" + l.Act.String(),
			linearBackward: prefix + "/linear_backward",
			actGrad:        prefix + "/" + l.Act.String() + "_grad",
			matmulDW:       prefix + "/matmul_dW",
			matmulDX:       prefix + "/matmul_dX",
			biasGrad:       prefix + "/bias_grad",
		})
	}
	for _, p := range net.MLP.Params() {
		net.adam = append(net.adam, name+"/adam/"+p.Name)
		net.gradFlatten = append(net.gradFlatten, name+"/grad_flatten/"+p.Name)
		net.assign = append(net.assign, name+"/assign/"+p.Name)
	}
	return net
}

// ParamBytes returns the float32 footprint of all parameters.
func (n *Network) ParamBytes() int { return 4 * n.MLP.NumParams() }

// Forward runs the network on a batch. Under TensorFlow-style models each
// dense layer is three operators (matmul, bias_add, activation), each its
// own eager dispatch in Eager mode; under PyTorch a layer executes as one
// fused linear+activation op — the structural difference behind the paper's
// F.3 transition-count gap. The result is the last layer's output, valid
// until that layer's next call (nn.Dense).
func (c *Comp) Forward(net *Network, x *nn.Tensor) *nn.Tensor {
	cur := x
	for i, l := range net.MLP.Layers {
		layer, in, ops := l, cur, &net.layers[i]
		flops := 2 * float64(in.Rows) * float64(layer.In) * float64(layer.Out)
		var out *nn.Tensor
		if c.b.costs.FuseDense {
			c.Op(ops.linearAct, flops, 1, func() {
				out = layer.Forward(in)
			})
		} else {
			c.Op(ops.matmul, flops, 1, func() {
				out = layer.Forward(in)
			})
			c.Op(ops.biasAdd, float64(in.Rows*layer.Out), 1, nil)
			c.Op(ops.act, float64(in.Rows*layer.Out), 1, nil)
		}
		cur = out
	}
	return cur
}

// Backward propagates dL/d(output) through the network, accumulating
// parameter gradients on the device. With inputGrad it returns dL/d(input),
// valid until the first layer's next call; without, the first layer skips
// that product and Backward returns nil. The ops and their FLOPs are the
// same either way: the modelled device still runs the input-grad kernel.
// TensorFlow models run four operators per layer (activation grad, weight
// grad, input grad, bias reduce); PyTorch fuses to two.
func (c *Comp) Backward(net *Network, dOut *nn.Tensor, inputGrad bool) *nn.Tensor {
	cur := dOut
	for i := len(net.MLP.Layers) - 1; i >= 0; i-- {
		layer, in, ops := net.MLP.Layers[i], cur, &net.layers[i]
		wantDX := i > 0 || inputGrad
		flops := 4 * float64(in.Rows) * float64(layer.In) * float64(layer.Out)
		var out *nn.Tensor
		if c.b.costs.FuseDense {
			c.Op(ops.linearBackward, flops, 2, func() {
				out = layer.Backward(in, wantDX)
			})
		} else {
			c.Op(ops.actGrad, float64(in.Rows*layer.Out), 1, nil)
			c.Op(ops.matmulDW, flops/2, 1, func() {
				out = layer.Backward(in, wantDX)
			})
			c.Op(ops.matmulDX, flops/2, 1, nil)
			c.Op(ops.biasGrad, float64(in.Rows*layer.Out), 1, nil)
		}
		cur = out
	}
	return cur
}

// ZeroGrad clears gradients as a device op.
func (c *Comp) ZeroGrad(net *Network) {
	c.Op(net.zeroGrad, float64(net.MLP.NumParams()), 1, func() {
		net.MLP.ZeroGrad()
	})
}

// HostLoss runs loss math that, in a real backend, would be one or two small
// device kernels (e.g. computing MSE and its gradient).
func (c *Comp) HostLoss(name string, fn func()) {
	c.Op(name, 0, 1, fn)
}

// AdamStepFused applies Adam entirely on the device: one fused update kernel
// per parameter tensor, weights never leave the GPU. This is the tf-agents /
// ReAgent optimizer path.
func (c *Comp) AdamStepFused(net *Network, opt *nn.Adam) {
	opt.BeginStep()
	for i, p := range net.MLP.Params() {
		param := p
		c.Op(net.adam[i], float64(10*param.Value.Size()), 1, func() {
			opt.UpdateParam(param)
		})
	}
}

// PolyakUpdate blends net into target on-device (soft target-network
// update). In stable-baselines Graph implementations this runs as its own
// session call; callers decide the Compute boundary.
func (c *Comp) PolyakUpdate(net, target *Network, tau float64) {
	c.Op(net.polyak, float64(3*net.MLP.NumParams()), 2, func() {
		net.MLP.PolyakTo(target.MLP, tau)
	})
}

// HardUpdate copies net's parameters into target on-device.
func (c *Comp) HardUpdate(net, target *Network) {
	c.Op(net.tgtCopy, float64(net.MLP.NumParams()), 1, func() {
		net.MLP.CopyTo(target.MLP)
	})
}

// MPIAdamApply is stable-baselines' MPI-friendly Adam (paper F.4): gradients
// are copied device→host, the Adam math runs in Python, and updated weights
// are written back — even during single-node training. It is a driver-level
// sequence of three backend interactions, producing the extra CUDA API calls
// and Python time the paper attributes to DDPG Graph backpropagation.
func (b *Backend) MPIAdamApply(net *Network, opt *nn.Adam) {
	params := net.MLP.Params()
	// 1. Fetch gradients to the host with blocking copies — Python needs
	// the values immediately.
	b.Compute(net.mpiFetch, KindBackprop, func(c *Comp) {
		for i, p := range params {
			c.Op(net.gradFlatten[i], float64(p.Grad.Size()), 1, nil)
			c.FetchSync(p.Grad)
		}
	})
	// 2. Adam math in Python on the host, one interpreted update per
	// parameter tensor.
	opt.BeginStep()
	b.Python(b.costs.PyGlue)
	pyAdam := vclock.Jittered(30*vclock.Microsecond, 0.2)
	for _, p := range params {
		b.Python(pyAdam)
		opt.UpdateParam(p)
	}
	// 3. Write updated weights back to the device.
	b.Compute(net.mpiAssign, KindBackprop, func(c *Comp) {
		for i, p := range params {
			c.Feed(p.Value)
			c.Op(net.assign[i], float64(p.Value.Size()), 1, nil)
		}
	})
}
