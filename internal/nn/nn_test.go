package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dcsr/internal/tensor"
)

// numericalGradCheck verifies that the analytic gradient of a scalar loss
// matches central finite differences for both inputs and parameters.
func numericalGradCheck(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	loss := func() float64 {
		out := layer.Forward(nil, x.Clone())
		var s float64
		for _, v := range out.Data {
			s += float64(v) * float64(v)
		}
		return s
	}
	// Analytic pass.
	out := layer.Forward(nil, x.Clone())
	gy := tensor.New(out.Shape...)
	for i, v := range out.Data {
		gy.Data[i] = 2 * v
	}
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	gx := layer.Backward(nil, gy)

	const eps = 1e-3
	checkOne := func(name string, data []float32, grad []float32, idx int) {
		orig := data[idx]
		data[idx] = orig + eps
		lp := loss()
		data[idx] = orig - eps
		lm := loss()
		data[idx] = orig
		num := (lp - lm) / (2 * eps)
		got := float64(grad[idx])
		denom := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
		if math.Abs(num-got)/denom > tol {
			t.Errorf("%s[%d]: analytic %g vs numeric %g", name, idx, got, num)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < 12; k++ {
		checkOne("input", x.Data, gx.Data, rng.Intn(len(x.Data)))
	}
	for _, p := range layer.Params() {
		for k := 0; k < 8; k++ {
			checkOne(p.Name, p.W.Data, p.Grad.Data, rng.Intn(p.W.Len()))
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	x.Randn(rng, 0.5)
	return x
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, 2, 3, 3, 1, 1)
	numericalGradCheck(t, conv, randTensor(rng, 2, 2, 5, 5), 1e-2)
}

func TestConv2DStrideGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D(rng, 1, 2, 3, 2, 1)
	numericalGradCheck(t, conv, randTensor(rng, 1, 1, 6, 6), 1e-2)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	numericalGradCheck(t, &ReLU{}, randTensor(rng, 1, 2, 4, 4), 1e-2)
}

func TestResBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	blk := NewResBlock(rng, 3, 1.0)
	numericalGradCheck(t, blk, randTensor(rng, 1, 3, 4, 4), 1e-2)
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(rng, 6, 4)
	numericalGradCheck(t, d, randTensor(rng, 3, 6), 1e-2)
}

func TestPixelShuffleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ps := &PixelShuffle{R: 2}
	x := randTensor(rng, 1, 8, 3, 3)
	out := ps.Forward(nil, x)
	if out.Shape[1] != 2 || out.Shape[2] != 6 || out.Shape[3] != 6 {
		t.Fatalf("PixelShuffle output shape %v", out.Shape)
	}
	// Backward of forward output must reproduce the input exactly
	// (pixel shuffle is a permutation).
	back := ps.Backward(nil, out)
	for i := range x.Data {
		if x.Data[i] != back.Data[i] {
			t.Fatalf("PixelShuffle backward not the exact inverse at %d", i)
		}
	}
	// Energy conservation under permutation.
	if math.Abs(x.SumSquares()-out.SumSquares()) > 1e-6 {
		t.Fatal("PixelShuffle changed tensor energy")
	}
}

func TestPixelShufflePlacement(t *testing.T) {
	// Channel (dy*r+dx) of a 1-output-channel shuffle must land at spatial
	// offset (dy, dx).
	x := tensor.New(1, 4, 2, 2)
	for c := 0; c < 4; c++ {
		for i := 0; i < 4; i++ {
			x.Data[c*4+i] = float32(c + 1)
		}
	}
	ps := &PixelShuffle{R: 2}
	out := ps.Forward(nil, x)
	want := [][]float32{
		{1, 2, 1, 2},
		{3, 4, 3, 4},
		{1, 2, 1, 2},
		{3, 4, 3, 4},
	}
	for y := 0; y < 4; y++ {
		for xx := 0; xx < 4; xx++ {
			if out.Data[y*4+xx] != want[y][xx] {
				t.Fatalf("out[%d][%d] = %v, want %v", y, xx, out.Data[y*4+xx], want[y][xx])
			}
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	target := tensor.FromSlice([]float32{1, 2, 3, 6}, 4)
	grad := new(tensor.Tensor)
	loss := MSELoss(pred, target, grad)
	if math.Abs(loss-1.0) > 1e-9 {
		t.Fatalf("loss = %g, want 1", loss)
	}
	wantGrad := []float32{0, 0, 0, -1} // 2*(4-6)/4
	for i, g := range grad.Data {
		if math.Abs(float64(g-wantGrad[i])) > 1e-6 {
			t.Fatalf("grad[%d] = %g, want %g", i, g, wantGrad[i])
		}
	}
}

// TestAdamConvergesOnIllConditioned: the only optimizer in the tree must
// recover known coefficients through Dense's exact backward pass, on the
// problem per-coordinate step sizes exist for — the second feature is a
// hundredth the scale of the first and carries a weight of 100, so its
// gradient is four orders of magnitude smaller.
func TestAdamConvergesOnIllConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense(rng, 2, 1)
	opt := NewAdam(0.05)
	var loss float64
	for step := 0; step < 4000; step++ {
		x := tensor.New(8, 2)
		y := tensor.New(8, 1)
		for i := 0; i < 8; i++ {
			x.Data[i*2] = float32(rng.NormFloat64())
			x.Data[i*2+1] = float32(rng.NormFloat64() * 0.01)
			y.Data[i] = x.Data[i*2] + 100*x.Data[i*2+1]
		}
		ZeroGrads(d.Params())
		pred := d.Forward(nil, x)
		grad := new(tensor.Tensor)
		loss = MSELoss(pred, y, grad)
		d.Backward(nil, grad)
		opt.Step(d.Params())
	}
	if math.Abs(float64(d.Wt.W.Data[0])-1) > 0.05 ||
		math.Abs(float64(d.Wt.W.Data[1])-100) > 5 ||
		math.Abs(float64(d.Bias.W.Data[0])) > 0.05 || loss > 0.01 {
		t.Fatalf("Adam did not converge: w=%v b=%v loss=%g", d.Wt.W.Data, d.Bias.W.Data, loss)
	}
}

func TestAdamGradClip(t *testing.T) {
	p := &Param{Name: "p", W: tensor.FromSlice([]float32{0}, 1), Grad: tensor.FromSlice([]float32{1e6}, 1)}
	opt := NewAdam(0.1)
	opt.GradClip = 1
	opt.Step([]*Param{p})
	// With clipping, one step moves at most ~LR (Adam normalizes magnitude).
	if math.Abs(float64(p.W.Data[0])) > 0.11 {
		t.Fatalf("clipped Adam step moved %g", p.W.Data[0])
	}
}

func TestWeightsSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := &Sequential{Layers: []Layer{NewConv2D(rng, 3, 4, 3, 1, 1), &ReLU{}, NewConv2D(rng, 4, 3, 3, 1, 1)}}
	dst := &Sequential{Layers: []Layer{NewConv2D(rng, 3, 4, 3, 1, 1), &ReLU{}, NewConv2D(rng, 4, 3, 3, 1, 1)}}
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != WeightsSize(src.Params()) {
		t.Fatalf("serialized %d bytes, WeightsSize says %d", buf.Len(), WeightsSize(src.Params()))
	}
	if err := LoadWeights(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	x := randTensor(rng, 1, 3, 5, 5)
	a := src.Forward(nil, x.Clone())
	b := dst.Forward(nil, x.Clone())
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded model disagrees with source model")
		}
	}
}

func TestLoadWeightsRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := NewConv2D(rng, 3, 4, 3, 1, 1)
	other := NewConv2D(rng, 3, 5, 3, 1, 1)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(&buf, other.Params()); err == nil {
		t.Fatal("LoadWeights accepted mismatched layout")
	}
	if err := LoadWeights(bytes.NewReader([]byte("garbage....")), src.Params()); err == nil {
		t.Fatal("LoadWeights accepted garbage")
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := &Sequential{Layers: []Layer{
		NewConv2D(rng, 1, 2, 3, 1, 1),
		&ReLU{},
		NewConv2D(rng, 2, 1, 3, 1, 1),
	}}
	numericalGradCheck(t, seq, randTensor(rng, 1, 1, 4, 4), 1e-2)
	if got := len(seq.Params()); got != 4 {
		t.Fatalf("Sequential.Params() returned %d params, want 4", got)
	}
}

func TestNumParamsConv(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := NewConv2D(rng, 3, 16, 3, 1, 1)
	want := 16*3*3*3 + 16
	if got := NumParams(c.Params()); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}
