// Package nn is a small feed-forward neural network library with dense and
// 1-D convolution layers, ReLU/sigmoid/tanh activations, MSE and binary
// cross-entropy losses, and the Adam optimizer — enough to reimplement
// Sinan's CNN latency predictor and Firm's actor/critic networks from
// scratch on the standard library.
package nn

import (
	"math"
	"math/rand"

	"ursa/internal/ml/tensor"
)

// Layer is one differentiable network stage.
type Layer interface {
	// Forward maps a batch (rows = examples) to outputs.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward receives ∂L/∂out and returns ∂L/∂in, accumulating parameter
	// gradients internally.
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	// Params returns parameter/gradient pairs for the optimizer.
	Params() []Param
	// Clone returns a deep copy of the layer's parameters with pristine
	// gradient/activation state, so the copy can run on another goroutine.
	Clone() Layer
}

// Param couples a parameter tensor with its gradient accumulator.
type Param struct {
	W, G *tensor.Matrix
}

// Dense is a fully connected layer: out = x·W + b.
type Dense struct {
	W, B   *tensor.Matrix
	gw, gb *tensor.Matrix
	lastX  *tensor.Matrix
}

// NewDense builds a dense layer with He initialisation.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	return &Dense{
		W:  tensor.Randn(in, out, math.Sqrt(2/float64(in)), rng),
		B:  tensor.New(1, out),
		gw: tensor.New(in, out),
		gb: tensor.New(1, out),
	}
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	d.lastX = x
	out := tensor.MatMul(x, d.W)
	out.AddRowVec(d.B)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	d.gw.Add(tensor.MatMulATB(d.lastX, gradOut))
	d.gb.Add(gradOut.ColSums())
	return tensor.MatMulABT(gradOut, d.W)
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{{d.W, d.gw}, {d.B, d.gb}}
}

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		W:  d.W.Clone(),
		B:  d.B.Clone(),
		gw: tensor.New(d.gw.Rows, d.gw.Cols),
		gb: tensor.New(d.gb.Rows, d.gb.Cols),
	}
}

// ReLU is max(0, x).
type ReLU struct{ mask []bool }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := x.Clone()
	r.mask = make([]bool, len(x.Data))
	for i, v := range x.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(g *tensor.Matrix) *tensor.Matrix {
	out := g.Clone()
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// Tanh activation.
type Tanh struct{ lastOut *tensor.Matrix }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = math.Tanh(v)
	}
	t.lastOut = out
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(g *tensor.Matrix) *tensor.Matrix {
	out := g.Clone()
	for i := range out.Data {
		y := t.lastOut.Data[i]
		out.Data[i] *= 1 - y*y
	}
	return out
}

// Params implements Layer.
func (t *Tanh) Params() []Param { return nil }

// Clone implements Layer.
func (t *Tanh) Clone() Layer { return &Tanh{} }

// Sigmoid activation.
type Sigmoid struct{ lastOut *tensor.Matrix }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := x.Clone()
	for i, v := range out.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	s.lastOut = out
	return out
}

// Backward implements Layer.
func (s *Sigmoid) Backward(g *tensor.Matrix) *tensor.Matrix {
	out := g.Clone()
	for i := range out.Data {
		y := s.lastOut.Data[i]
		out.Data[i] *= y * (1 - y)
	}
	return out
}

// Params implements Layer.
func (s *Sigmoid) Params() []Param { return nil }

// Clone implements Layer.
func (s *Sigmoid) Clone() Layer { return &Sigmoid{} }

// Conv1D applies `Filters` kernels of width `Kernel` over an input laid out
// as Channels×Width per example (row-major: channel-major). Stride 1, no
// padding. This mirrors the convolution Sinan applies across service tiers.
type Conv1D struct {
	Channels, Width, Kernel, Filters int
	W                                *tensor.Matrix // filters × (channels·kernel)
	B                                *tensor.Matrix
	gw, gb                           *tensor.Matrix
	lastX                            *tensor.Matrix
}

// NewConv1D builds the layer; input rows are channels·width long.
func NewConv1D(channels, width, kernel, filters int, rng *rand.Rand) *Conv1D {
	if kernel > width {
		panic("nn: kernel wider than input")
	}
	fan := channels * kernel
	return &Conv1D{
		Channels: channels, Width: width, Kernel: kernel, Filters: filters,
		W:  tensor.Randn(filters, fan, math.Sqrt(2/float64(fan)), rng),
		B:  tensor.New(1, filters),
		gw: tensor.New(filters, fan),
		gb: tensor.New(1, filters),
	}
}

// OutWidth reports the spatial output width.
func (c *Conv1D) OutWidth() int { return c.Width - c.Kernel + 1 }

// OutLen reports the flattened output length per example.
func (c *Conv1D) OutLen() int { return c.OutWidth() * c.Filters }

// Forward implements Layer; output rows are filters·outWidth long
// (filter-major).
func (c *Conv1D) Forward(x *tensor.Matrix) *tensor.Matrix {
	c.lastX = x
	ow := c.OutWidth()
	out := tensor.New(x.Rows, c.OutLen())
	for r := 0; r < x.Rows; r++ {
		in := x.Data[r*x.Cols : (r+1)*x.Cols]
		for f := 0; f < c.Filters; f++ {
			w := c.W.Data[f*c.W.Cols : (f+1)*c.W.Cols]
			for p := 0; p < ow; p++ {
				s := c.B.Data[f]
				for ch := 0; ch < c.Channels; ch++ {
					io := ch * c.Width
					wo := ch * c.Kernel
					for k := 0; k < c.Kernel; k++ {
						s += in[io+p+k] * w[wo+k]
					}
				}
				out.Data[r*out.Cols+f*ow+p] = s
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv1D) Backward(g *tensor.Matrix) *tensor.Matrix {
	ow := c.OutWidth()
	gin := tensor.New(c.lastX.Rows, c.lastX.Cols)
	for r := 0; r < g.Rows; r++ {
		in := c.lastX.Data[r*c.lastX.Cols : (r+1)*c.lastX.Cols]
		gi := gin.Data[r*gin.Cols : (r+1)*gin.Cols]
		for f := 0; f < c.Filters; f++ {
			w := c.W.Data[f*c.W.Cols : (f+1)*c.W.Cols]
			gw := c.gw.Data[f*c.gw.Cols : (f+1)*c.gw.Cols]
			for p := 0; p < ow; p++ {
				go_ := g.Data[r*g.Cols+f*ow+p]
				if go_ == 0 {
					continue
				}
				c.gb.Data[f] += go_
				for ch := 0; ch < c.Channels; ch++ {
					io := ch * c.Width
					wo := ch * c.Kernel
					for k := 0; k < c.Kernel; k++ {
						gw[wo+k] += go_ * in[io+p+k]
						gi[io+p+k] += go_ * w[wo+k]
					}
				}
			}
		}
	}
	return gin
}

// Params implements Layer.
func (c *Conv1D) Params() []Param {
	return []Param{{c.W, c.gw}, {c.B, c.gb}}
}

// Clone implements Layer.
func (c *Conv1D) Clone() Layer {
	return &Conv1D{
		Channels: c.Channels, Width: c.Width, Kernel: c.Kernel, Filters: c.Filters,
		W:  c.W.Clone(),
		B:  c.B.Clone(),
		gw: tensor.New(c.gw.Rows, c.gw.Cols),
		gb: tensor.New(c.gb.Rows, c.gb.Cols),
	}
}

// Network is a layer stack.
type Network struct {
	Layers []Layer
}

// Forward runs the full stack.
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates output gradients through the stack.
func (n *Network) Backward(g *tensor.Matrix) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
}

// Params collects all parameters.
func (n *Network) Params() []Param {
	var out []Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Clone returns a deep copy of the network: identical weights, fresh
// gradient and activation buffers. Forward caches inputs per layer, so a
// network must never be shared across goroutines — clone it instead.
func (n *Network) Clone() *Network {
	out := &Network{Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		out.Layers[i] = l.Clone()
	}
	return out
}

// ZeroGrad clears all gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// MSELoss returns the mean-squared-error loss and ∂L/∂pred.
func MSELoss(pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSE shape mismatch")
	}
	n := float64(len(pred.Data))
	grad := tensor.New(pred.Rows, pred.Cols)
	loss := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// Adam is the Adam optimizer.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*tensor.Matrix]*tensor.Matrix
}

// NewAdam builds an optimizer with standard hyper-parameters.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*tensor.Matrix]*tensor.Matrix{},
		v: map[*tensor.Matrix]*tensor.Matrix{},
	}
}

// CloneFor deep-copies the optimizer state for a cloned parameter set:
// oldParams and newParams must align index-wise (as returned by Params on
// the original and cloned network). Moment estimates keyed by the old
// tensors are re-keyed onto the new ones, so the clone resumes training
// exactly where the original stood.
func (a *Adam) CloneFor(oldParams, newParams []Param) *Adam {
	c := NewAdam(a.LR)
	c.Beta1, c.Beta2, c.Eps, c.t = a.Beta1, a.Beta2, a.Eps, a.t
	for i := range oldParams {
		if i >= len(newParams) {
			break
		}
		if m, ok := a.m[oldParams[i].W]; ok {
			c.m[newParams[i].W] = m.Clone()
		}
		if v, ok := a.v[oldParams[i].W]; ok {
			c.v[newParams[i].W] = v.Clone()
		}
	}
	return c
}

// Step applies one update to all params and zeroes their gradients.
func (a *Adam) Step(params []Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p.W]
		if !ok {
			m = tensor.New(p.W.Rows, p.W.Cols)
			a.m[p.W] = m
		}
		v, ok := a.v[p.W]
		if !ok {
			v = tensor.New(p.W.Rows, p.W.Cols)
			a.v[p.W] = v
		}
		for i := range p.W.Data {
			g := p.G.Data[i]
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			p.W.Data[i] -= a.LR * (m.Data[i] / bc1) / (math.Sqrt(v.Data[i]/bc2) + a.Eps)
		}
		p.G.Zero()
	}
}
