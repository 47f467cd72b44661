package nn

import (
	"math"
	"math/rand"
	"testing"

	"ursa/internal/ml/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 1, rng)
	d.W.Data = []float64{2, 3}
	d.B.Data = []float64{1}
	out := d.Forward(tensor.FromSlice(1, 2, []float64{4, 5}))
	if out.Data[0] != 2*4+3*5+1 {
		t.Fatalf("forward = %v", out.Data)
	}
}

// numericalGrad checks backprop against finite differences for a small net.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := &Network{Layers: []Layer{
		NewDense(3, 4, rng), &ReLU{},
		NewDense(4, 2, rng), &Sigmoid{},
	}}
	x := tensor.Randn(2, 3, 1, rng)
	y := tensor.FromSlice(2, 2, []float64{0, 1, 1, 0})

	lossAt := func() float64 {
		out := net.Forward(x)
		l, _ := MSELoss(out, y)
		return l
	}

	net.ZeroGrad()
	out := net.Forward(x)
	_, grad := MSELoss(out, y)
	net.Backward(grad)

	const h = 1e-6
	for pi, p := range net.Params() {
		for i := 0; i < len(p.W.Data); i += 3 { // spot-check every 3rd weight
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := lossAt()
			p.W.Data[i] = orig - h
			lm := lossAt()
			p.W.Data[i] = orig
			want := (lp - lm) / (2 * h)
			got := p.G.Data[i]
			if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %d idx %d: analytic %v vs numeric %v", pi, i, got, want)
			}
		}
	}
}

func TestConv1DBackpropMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv1D(2, 5, 3, 2, rng)
	net := &Network{Layers: []Layer{conv, &ReLU{}, NewDense(conv.OutLen(), 1, rng)}}
	x := tensor.Randn(2, 10, 1, rng)
	y := tensor.FromSlice(2, 1, []float64{0.5, -0.5})
	lossAt := func() float64 {
		out := net.Forward(x)
		l, _ := MSELoss(out, y)
		return l
	}
	net.ZeroGrad()
	out := net.Forward(x)
	_, grad := MSELoss(out, y)
	net.Backward(grad)
	const h = 1e-6
	p := conv.Params()[0] // conv weights
	for i := 0; i < len(p.W.Data); i += 2 {
		orig := p.W.Data[i]
		p.W.Data[i] = orig + h
		lp := lossAt()
		p.W.Data[i] = orig - h
		lm := lossAt()
		p.W.Data[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(want-p.G.Data[i]) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("conv grad idx %d: analytic %v vs numeric %v", i, p.G.Data[i], want)
		}
	}
}

func TestConv1DOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv := NewConv1D(3, 8, 3, 4, rng)
	if conv.OutWidth() != 6 || conv.OutLen() != 24 {
		t.Fatalf("out width %d len %d", conv.OutWidth(), conv.OutLen())
	}
	out := conv.Forward(tensor.Randn(5, 24, 1, rng))
	if out.Rows != 5 || out.Cols != 24 {
		t.Fatalf("forward shape %dx%d", out.Rows, out.Cols)
	}
}

func TestTrainingLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := &Network{Layers: []Layer{
		NewDense(2, 8, rng), &ReLU{},
		NewDense(8, 1, rng), &Sigmoid{},
	}}
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := tensor.FromSlice(4, 1, []float64{0, 1, 1, 0})
	opt := NewAdam(0.05)
	for i := 0; i < 800; i++ {
		net.ZeroGrad()
		out := net.Forward(x)
		_, grad := MSELoss(out, y)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	out := net.Forward(x)
	for i, want := range []float64{0, 1, 1, 0} {
		if math.Abs(out.Data[i]-want) > 0.2 {
			t.Fatalf("XOR not learned: pred=%v", out.Data)
		}
	}
}

func TestTrainingLearnsRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := &Network{Layers: []Layer{
		NewDense(1, 16, rng), &ReLU{},
		NewDense(16, 1, rng),
	}}
	n := 64
	x := tensor.New(n, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		v := float64(i)/float64(n)*2 - 1
		x.Data[i] = v
		y.Data[i] = v * v
	}
	opt := NewAdam(0.01)
	var loss float64
	for i := 0; i < 1500; i++ {
		net.ZeroGrad()
		out := net.Forward(x)
		var grad *tensor.Matrix
		loss, grad = MSELoss(out, y)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if loss > 0.005 {
		t.Fatalf("regression did not converge: loss=%v", loss)
	}
}

func TestLossesKnownValues(t *testing.T) {
	pred := tensor.FromSlice(1, 2, []float64{1, 3})
	tgt := tensor.FromSlice(1, 2, []float64{0, 0})
	l, g := MSELoss(pred, tgt)
	if math.Abs(l-5) > 1e-12 { // (1+9)/2
		t.Fatalf("MSE = %v", l)
	}
	if math.Abs(g.Data[0]-1) > 1e-12 || math.Abs(g.Data[1]-3) > 1e-12 {
		t.Fatalf("MSE grad = %v", g.Data)
	}
}

func TestTanhRange(t *testing.T) {
	var th Tanh
	out := th.Forward(tensor.FromSlice(1, 3, []float64{-100, 0, 100}))
	if out.Data[0] != -1 || out.Data[1] != 0 || out.Data[2] != 1 {
		t.Fatalf("tanh = %v", out.Data)
	}
}
