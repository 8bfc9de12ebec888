// Package nn implements the small neural-network toolkit that dcSR's models
// are built from: 2-D convolution, ReLU, residual blocks, pixel-shuffle
// upsampling, fully connected layers, a Sequential container, MSE loss, and
// SGD/Adam optimizers — all in pure Go on float32 tensors with exact
// backpropagation.
//
// The design mirrors the classic define-by-stack style: a Layer owns its
// parameters and caches whatever it needs during Forward to compute
// Backward. Networks here are small (dcSR micro models are 4–16 residual
// blocks of ≤16 filters); the heavy lifting (im2col convolutions, blocked
// GEMM kernels) lives in internal/tensor. Alongside the training pair
// every Layer exposes ForwardInference, a no-grad path that fuses
// conv+bias+ReLU, reuses layer-owned output buffers, and retains no
// column buffers — the decoder hot loop runs entirely on it.
package nn

import (
	"math"
	"math/rand"

	"dcsr/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward consumes an activation and
// returns the next one; Backward consumes the gradient of the loss with
// respect to the output and returns the gradient with respect to the input,
// accumulating parameter gradients along the way. A Layer is stateful
// between a Forward and the matching Backward (it caches activations), so a
// single Layer instance must not be used concurrently.
//
// ForwardInference is the no-grad fast path: it produces the same bits
// as Forward but caches nothing for Backward, reuses a layer-owned
// output buffer across calls (so steady-state inference allocates
// nothing), and may modify x in place. The returned tensor is owned by
// the layer and valid until its next ForwardInference call; callers
// needing to retain it must Clone. Do not interleave ForwardInference
// between a Forward and its matching Backward.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	ForwardInference(x *tensor.Tensor) *tensor.Tensor
	Backward(gy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Conv2D is a 2-D convolution layer with bias.
type Conv2D struct {
	Spec tensor.ConvSpec
	Wt   *Param
	Bias *Param

	x    *tensor.Tensor
	cols [][]float32
	out  *tensor.Tensor // reusable inference output (both precisions)

	calibrating bool        // observing activation ranges (see nn_int8.go)
	actMax      float32     // calibrated input max-abs
	int8        *conv2DInt8 // quantized state, nil until QuantizeInt8
}

// NewConv2D creates a KxK convolution from inC to outC channels with the
// given stride and padding, He-initialized from rng.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	c := &Conv2D{
		Spec: tensor.ConvSpec{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad},
		Wt:   newParam("conv.w", outC, inC, k, k),
		Bias: newParam("conv.b", outC),
	}
	fanIn := float64(inC * k * k)
	c.Wt.W.Randn(rng, math.Sqrt(2.0/fanIn))
	return c
}

// Forward applies the convolution to x (N, InC, H, W).
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.x = x
	out, cols := tensor.Conv2DForward(x, c.Wt.W, c.Bias.W, c.Spec)
	c.cols = cols
	return out
}

// ForwardInference applies the convolution without retaining column
// buffers, writing into the layer's reusable output tensor.
func (c *Conv2D) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	c.observe(x)
	c.out = tensor.Conv2DInfer(x, c.Wt.W, c.Bias.W, c.Spec, false, c.out)
	return c.out
}

// observe widens the calibrated activation range while the layer is in
// calibration mode (see nn_int8.go); otherwise it is a no-op.
func (c *Conv2D) observe(x *tensor.Tensor) {
	if c.calibrating {
		if m := x.MaxAbs(); m > c.actMax {
			c.actMax = m
		}
	}
}

// ForwardInferenceReLU is ForwardInference with the ReLU activation
// fused into the convolution epilogue, bitwise identical to a separate
// ReLU pass over the same output.
func (c *Conv2D) ForwardInferenceReLU(x *tensor.Tensor) *tensor.Tensor {
	c.observe(x)
	c.out = tensor.Conv2DInfer(x, c.Wt.W, c.Bias.W, c.Spec, true, c.out)
	return c.out
}

// Backward propagates gy through the convolution.
func (c *Conv2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	gx := tensor.Conv2DBackward(gy, c.cols, c.x.Shape, c.Wt.W, c.Wt.Grad, c.Bias.Grad, c.Spec)
	c.cols = nil
	return gx
}

// Params returns the weight and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Wt, c.Bias} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// Forward clamps negatives to zero.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return out
}

// ForwardInference clamps negatives to zero in place (no mask is kept).
func (r *ReLU) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	return x
}

// Backward zeroes gradients where the input was negative.
func (r *ReLU) Backward(gy *tensor.Tensor) *tensor.Tensor {
	gx := gy.Clone()
	for i := range gx.Data {
		if !r.mask[i] {
			gx.Data[i] = 0
		}
	}
	return gx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// ResBlock is the EDSR residual block: conv → ReLU → conv, the result scaled
// by ResScale and added to the input. EDSR omits batch normalization.
type ResBlock struct {
	Conv1, Conv2 *Conv2D
	Act          *ReLU
	ResScale     float32

	out *tensor.Tensor // reusable inference output
}

// NewResBlock builds a residual block over nf feature maps with 3×3 convs.
func NewResBlock(rng *rand.Rand, nf int, resScale float32) *ResBlock {
	return &ResBlock{
		Conv1:    NewConv2D(rng, nf, nf, 3, 1, 1),
		Conv2:    NewConv2D(rng, nf, nf, 3, 1, 1),
		Act:      &ReLU{},
		ResScale: resScale,
	}
}

// Forward computes x + ResScale · conv2(relu(conv1(x))).
func (b *ResBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := b.Conv1.Forward(x)
	h = b.Act.Forward(h)
	h = b.Conv2.Forward(h)
	out := x.Clone()
	for i, v := range h.Data {
		out.Data[i] += b.ResScale * v
	}
	return out
}

// ForwardInference runs the block with the first conv's ReLU fused into
// its epilogue and the residual add written into a reusable buffer.
func (b *ResBlock) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	h := b.Conv1.ForwardInferenceReLU(x)
	h = b.Conv2.ForwardInference(h)
	b.out = tensor.Ensure(b.out, x.Shape...)
	addScaled(b.out.Data, x.Data, h.Data, b.ResScale)
	return b.out
}

// addScaled writes out[i] = x[i] + scale*h[i]. The operands are locals
// resliced to one length so the loop reloads nothing and checks no
// bounds: after the SIMD kernels it is a visible share of a frame.
func addScaled(out, x, h []float32, scale float32) {
	out, x = out[:len(h)], x[:len(h)]
	for i, v := range h {
		out[i] = x[i] + scale*v
	}
}

// Backward splits the gradient across the residual and identity paths.
func (b *ResBlock) Backward(gy *tensor.Tensor) *tensor.Tensor {
	gBranch := gy.Clone()
	gBranch.ScaleInPlace(b.ResScale)
	g := b.Conv2.Backward(gBranch)
	g = b.Act.Backward(g)
	g = b.Conv1.Backward(g)
	g.AddInPlace(gy) // identity path
	return g
}

// Params returns the parameters of both convolutions.
func (b *ResBlock) Params() []*Param {
	return append(b.Conv1.Params(), b.Conv2.Params()...)
}

// PixelShuffle rearranges (N, C·r², H, W) into (N, C, H·r, W·r); it is the
// standard sub-pixel upsampling layer used by EDSR tails.
type PixelShuffle struct {
	R     int
	shape []int
	out   *tensor.Tensor // reusable inference output
}

// Forward performs the depth-to-space rearrangement.
func (p *PixelShuffle) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.shape = x.Shape
	out := tensor.New(p.outShape(x)...)
	p.shuffleInto(x, out)
	return out
}

// ForwardInference performs the same rearrangement into a reusable
// buffer and keeps no state for Backward.
func (p *PixelShuffle) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	p.out = tensor.Ensure(p.out, p.outShape(x)...)
	p.shuffleInto(x, p.out)
	return p.out
}

// outShape validates the channel count and returns the (N, C/r², H·r,
// W·r) output shape.
func (p *PixelShuffle) outShape(x *tensor.Tensor) []int {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	r := p.R
	if c%(r*r) != 0 {
		panic("nn: PixelShuffle channel count not divisible by r²")
	}
	return []int{n, c / (r * r), h * r, w * r}
}

// shuffleInto writes the depth-to-space rearrangement of x into out.
func (p *PixelShuffle) shuffleInto(x, out *tensor.Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	r := p.R
	oc := c / (r * r)
	for ni := 0; ni < n; ni++ {
		for co := 0; co < oc; co++ {
			for dy := 0; dy < r; dy++ {
				for dx := 0; dx < r; dx++ {
					ci := co*r*r + dy*r + dx
					src := x.Data[((ni*c+ci)*h)*w : ((ni*c+ci)*h+h)*w]
					for y := 0; y < h; y++ {
						oy := y*r + dy
						dstRow := out.Data[((ni*oc+co)*h*r+oy)*w*r : ((ni*oc+co)*h*r+oy+1)*w*r]
						srcRow := src[y*w : (y+1)*w]
						for xx := 0; xx < w; xx++ {
							dstRow[xx*r+dx] = srcRow[xx]
						}
					}
				}
			}
		}
	}
}

// Backward performs the inverse space-to-depth rearrangement on gy.
func (p *PixelShuffle) Backward(gy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.shape[0], p.shape[1], p.shape[2], p.shape[3]
	r := p.R
	oc := c / (r * r)
	gx := tensor.New(n, c, h, w)
	for ni := 0; ni < n; ni++ {
		for co := 0; co < oc; co++ {
			for dy := 0; dy < r; dy++ {
				for dx := 0; dx < r; dx++ {
					ci := co*r*r + dy*r + dx
					dst := gx.Data[((ni*c+ci)*h)*w : ((ni*c+ci)*h+h)*w]
					for y := 0; y < h; y++ {
						oy := y*r + dy
						srcRow := gy.Data[((ni*oc+co)*h*r+oy)*w*r : ((ni*oc+co)*h*r+oy+1)*w*r]
						dstRow := dst[y*w : (y+1)*w]
						for xx := 0; xx < w; xx++ {
							dstRow[xx] = srcRow[xx*r+dx]
						}
					}
				}
			}
		}
	}
	return gx
}

// Params returns nil; PixelShuffle has no parameters.
func (p *PixelShuffle) Params() []*Param { return nil }

// Dense is a fully connected layer acting on (N, In) tensors.
type Dense struct {
	In, Out int
	Wt      *Param // (Out, In)
	Bias    *Param // (Out)
	x       *tensor.Tensor
	gw      []float32      // reusable weight-gradient staging buffer
	out     *tensor.Tensor // reusable inference output
}

// NewDense creates a fully connected layer, Xavier-initialized from rng.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{In: in, Out: out, Wt: newParam("dense.w", out, in), Bias: newParam("dense.b", out)}
	d.Wt.W.Randn(rng, math.Sqrt(1.0/float64(in)))
	return d
}

// Forward computes x·Wᵀ + b for a batch of row vectors.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	d.x = x
	out := tensor.New(n, d.Out)
	tensor.MatMulBT(x.Data, d.Wt.W.Data, out.Data, n, d.In, d.Out)
	for i := 0; i < n; i++ {
		row := out.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.Bias.W.Data[j]
		}
	}
	return out
}

// ForwardInference computes x·Wᵀ + b into a reusable output buffer,
// keeping no state for Backward.
func (d *Dense) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	d.out = tensor.Ensure(d.out, n, d.Out)
	tensor.MatMulBT(x.Data, d.Wt.W.Data, d.out.Data, n, d.In, d.Out)
	for i := 0; i < n; i++ {
		row := d.out.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.Bias.W.Data[j]
		}
	}
	return d.out
}

// Backward computes input gradients and accumulates weight/bias gradients.
func (d *Dense) Backward(gy *tensor.Tensor) *tensor.Tensor {
	n := gy.Shape[0]
	// gW(Out×In) += gyᵀ(N×Out)ᵀ · x(N×In), staged through a scratch
	// buffer reused across steps rather than allocated per call.
	if cap(d.gw) < d.Out*d.In {
		d.gw = make([]float32, d.Out*d.In)
	}
	gw := d.gw[:d.Out*d.In]
	tensor.MatMulAT(gy.Data, d.x.Data, gw, n, d.Out, d.In)
	for i, v := range gw {
		d.Wt.Grad.Data[i] += v
	}
	for i := 0; i < n; i++ {
		row := gy.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			d.Bias.Grad.Data[j] += v
		}
	}
	gx := tensor.New(n, d.In)
	tensor.MatMul(gy.Data, d.Wt.W.Data, gx.Data, n, d.Out, d.In)
	return gx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.Wt, d.Bias} }

// Sequential chains layers; Forward runs them left to right and Backward in
// reverse.
type Sequential struct {
	Layers []Layer
}

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// ForwardInference runs all layers in order on the no-grad fast path.
func (s *Sequential) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.ForwardInference(x)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(gy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gy = s.Layers[i].Backward(gy)
	}
	return gy
}

// Params collects parameters from every layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of scalar parameters across ps.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.W.Len()
	}
	return n
}

// ZeroGrads clears every gradient in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// MSELoss returns ½·mean((pred−target)²)… precisely mean squared error and
// the gradient of that loss with respect to pred.
func MSELoss(pred, target *tensor.Tensor) (loss float64, grad *tensor.Tensor) {
	if pred.Len() != target.Len() {
		panic("nn: MSELoss size mismatch")
	}
	grad = tensor.New(pred.Shape...)
	n := float64(pred.Len())
	var sum float64
	for i, v := range pred.Data {
		d := float64(v) - float64(target.Data[i])
		sum += d * d
		grad.Data[i] = float32(2 * d / n)
	}
	return sum / n, grad
}
