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
	Name string
	MLP  *nn.MLP
}

// NewNetwork builds a device-resident MLP.
func NewNetwork(rng *rand.Rand, name string, sizes []int, act, outAct nn.Activation) *Network {
	return &Network{Name: name, MLP: nn.NewMLP(rng, sizes, act, outAct, name)}
}

// ParamBytes returns the float32 footprint of all parameters.
func (n *Network) ParamBytes() int { return 4 * n.MLP.NumParams() }

// Forward runs the network on a batch. Under TensorFlow-style models each
// dense layer is three operators (matmul, bias_add, activation), each its
// own eager dispatch in Eager mode; under PyTorch a layer executes as one
// fused linear+activation op — the structural difference behind the paper's
// F.3 transition-count gap.
func (c *Comp) Forward(net *Network, x *nn.Tensor) *nn.Tensor {
	cur := x
	for i, l := range net.MLP.Layers {
		layer, in := l, cur
		flops := 2 * float64(in.Rows) * float64(layer.In) * float64(layer.Out)
		prefix := fmt.Sprintf("%s/dense%d", net.Name, i)
		var out *nn.Tensor
		if c.b.costs.FuseDense {
			c.Op(prefix+"/linear_act", flops, 1, func() {
				out = layer.Forward(in)
			})
		} else {
			c.Op(prefix+"/matmul", flops, 1, func() {
				out = layer.Forward(in)
			})
			c.Op(prefix+"/bias_add", float64(in.Rows*layer.Out), 1, nil)
			c.Op(prefix+"/"+layer.Act.String(), float64(in.Rows*layer.Out), 1, nil)
		}
		cur = out
	}
	return cur
}

// Backward propagates dL/d(output) through the network, accumulating
// parameter gradients on the device, and returns dL/d(input). TensorFlow
// models run four operators per layer (activation grad, weight grad, input
// grad, bias reduce); PyTorch fuses to two.
func (c *Comp) Backward(net *Network, dOut *nn.Tensor) *nn.Tensor {
	cur := dOut
	for i := len(net.MLP.Layers) - 1; i >= 0; i-- {
		layer, in := net.MLP.Layers[i], cur
		flops := 4 * float64(in.Rows) * float64(layer.In) * float64(layer.Out)
		prefix := fmt.Sprintf("%s/dense%d", net.Name, i)
		var out *nn.Tensor
		if c.b.costs.FuseDense {
			c.Op(prefix+"/linear_backward", flops, 2, func() {
				out = layer.Backward(in)
			})
		} else {
			c.Op(prefix+"/"+layer.Act.String()+"_grad", float64(in.Rows*layer.Out), 1, nil)
			c.Op(prefix+"/matmul_dW", flops/2, 1, func() {
				out = layer.Backward(in)
			})
			c.Op(prefix+"/matmul_dX", flops/2, 1, nil)
			c.Op(prefix+"/bias_grad", float64(in.Rows*layer.Out), 1, nil)
		}
		cur = out
	}
	return cur
}

// ZeroGrad clears gradients as a device op.
func (c *Comp) ZeroGrad(net *Network) {
	c.Op(net.Name+"/zero_grad", float64(net.MLP.NumParams()), 1, func() {
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
	for _, p := range net.MLP.Params() {
		param := p
		c.Op(net.Name+"/adam/"+param.Name, float64(10*param.Value.Size()), 1, func() {
			opt.UpdateParam(param)
		})
	}
}

// PolyakUpdate blends net into target on-device (soft target-network
// update). In stable-baselines Graph implementations this runs as its own
// session call; callers decide the Compute boundary.
func (c *Comp) PolyakUpdate(net, target *Network, tau float64) {
	c.Op(net.Name+"/polyak", float64(3*net.MLP.NumParams()), 2, func() {
		net.MLP.PolyakTo(target.MLP, tau)
	})
}

// HardUpdate copies net's parameters into target on-device.
func (c *Comp) HardUpdate(net, target *Network) {
	c.Op(net.Name+"/target_copy", float64(net.MLP.NumParams()), 1, func() {
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
	b.Compute(net.Name+"/mpi_adam/fetch_grads", KindBackprop, func(c *Comp) {
		for _, p := range params {
			c.Op(net.Name+"/grad_flatten/"+p.Name, float64(p.Grad.Size()), 1, nil)
			c.FetchSync(p.Grad)
		}
	})
	// 2. Adam math in Python on the host, one interpreted update per
	// parameter tensor.
	opt.BeginStep()
	b.sess.Python(b.costs.PyGlue)
	pyAdam := vclock.Jittered(30*vclock.Microsecond, 0.2)
	for _, p := range params {
		b.sess.Python(pyAdam)
		opt.UpdateParam(p)
	}
	// 3. Write updated weights back to the device.
	b.Compute(net.Name+"/mpi_adam/assign_weights", KindBackprop, func(c *Comp) {
		for _, p := range params {
			c.Feed(p.Value)
			c.Op(net.Name+"/assign/"+p.Name, float64(p.Value.Size()), 1, nil)
		}
	})
}
