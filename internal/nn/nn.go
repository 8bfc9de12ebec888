// Package nn implements the small neural-network toolkit that dcSR's models
// are built from: 2-D convolution, ReLU, residual blocks, pixel-shuffle
// upsampling, fully connected layers, MSE loss, and the Adam optimizer —
// all in pure Go on float32 tensors with exact backpropagation.
//
// The design mirrors the classic define-by-stack style: a Layer owns its
// parameters and caches whatever it needs during Forward to compute
// Backward. Networks here are small (dcSR micro models are 4–16 residual
// blocks of ≤16 filters); the heavy lifting (im2col convolutions, blocked
// GEMM kernels) lives in internal/tensor. Alongside the training pair
// the layers expose ForwardInference, a no-grad path that fuses
// conv+bias+ReLU, writes into destinations its caller supplies, and
// retains no column buffers — the decoder hot loop runs entirely on it.
//
// Layers own parameters, not activations. A training pass takes its
// tensors from the tensor.Arena handed to Forward and Backward (whoever
// runs the step owns it and resets it between steps); an inference pass
// writes where it is told (edsr.Workspace is the set of destinations one
// EDSR pass needs). So a layer costs its weights and nothing else, and
// models that take turns share one working set.
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

	// grid, when set, is the int8 grid W is exactly the dequantization of
	// (Conv2D.SnapInt8, or a dcW6 payload); QuantizeInt8 runs it as it
	// stands. Every write of W — Adam.Step, CopyWeights, LoadWeights of a
	// dcW1 payload, ApplyWeightsDelta's dst — drops it.
	grid *int8Grid
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
// between a Forward and the matching Backward (it remembers its input), so
// a single Layer instance must not be used concurrently.
//
// Every tensor a pass produces — outputs, column matrices, gradients —
// comes from the arena a, so a training loop that resets one arena per
// step stops allocating after the first; the tensors are valid until that
// Reset. A nil arena allocates each one fresh. Backward may add into the
// gradient a layer below it returned, never into gy.
//
// The concrete layers also have ForwardInference methods, the no-grad
// fast path: the same bits as Forward, nothing kept for Backward, output
// written into tensors the caller supplies (shaped via tensor.Ensure), so
// steady-state inference allocates nothing and the caller decides how
// many maps a pass keeps alive.
type Layer interface {
	Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor
	Backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Conv2D is a 2-D convolution layer with bias.
type Conv2D struct {
	Spec tensor.ConvSpec
	Wt   *Param
	Bias *Param

	x    *tensor.Tensor // Forward's input, until Backward
	cols [][]float32    // its column matrices' views; the header is reused

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
func (c *Conv2D) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	c.x = x
	out := a.Next()
	c.cols = tensor.Conv2DForwardInto(out, a.Next(), c.cols, x, c.Wt.W, c.Bias.W, c.Spec)
	return out
}

// ForwardInference applies the convolution without retaining column
// buffers, writing into out.
func (c *Conv2D) ForwardInference(x, out *tensor.Tensor) *tensor.Tensor {
	c.observe(x)
	return tensor.Conv2DInfer(x, c.Wt.W, c.Bias.W, c.Spec, false, out)
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
func (c *Conv2D) ForwardInferenceReLU(x, out *tensor.Tensor) *tensor.Tensor {
	c.observe(x)
	return tensor.Conv2DInfer(x, c.Wt.W, c.Bias.W, c.Spec, true, out)
}

// Backward propagates gy through the convolution and lets go of what
// Forward remembered, so a trained layer pins none of its last step.
func (c *Conv2D) Backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor {
	gx := a.Next()
	tensor.Conv2DBackwardInto(gx, gy, c.cols, c.x.Shape, c.Wt.W, c.Wt.Grad, c.Bias.Grad, c.Spec)
	clear(c.cols)
	c.x, c.cols = nil, c.cols[:0]
	return gx
}

// Params returns the weight and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.Wt, c.Bias} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// Forward clamps negatives to zero.
func (r *ReLU) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.Ensure(a.Next(), x.Shape...)
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range x.Data {
		r.mask[i] = !(v < 0)
		if v < 0 {
			v = 0
		}
		out.Data[i] = v
	}
	return out
}

// Backward zeroes gradients where the input was negative.
func (r *ReLU) Backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor {
	gx := tensor.Ensure(a.Next(), gy.Shape...)
	for i, g := range gy.Data {
		if !r.mask[i] {
			g = 0
		}
		gx.Data[i] = g
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
func (b *ResBlock) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	h := b.Conv1.Forward(a, x)
	h = b.Act.Forward(a, h)
	h = b.Conv2.Forward(a, h)
	out := tensor.Ensure(a.Next(), x.Shape...)
	addScaled(out.Data, x.Data, h.Data, b.ResScale)
	return out
}

// ForwardInference runs the block with the first conv's ReLU fused into
// its epilogue: conv1 writes mid, conv2 writes out, and the residual is
// added into out in place — the add is elementwise, so reading h[i] and
// writing out[i] at the same address changes no bit. x, mid and out
// must be three different tensors; the result is out.
func (b *ResBlock) ForwardInference(x, mid, out *tensor.Tensor) *tensor.Tensor {
	h := b.Conv1.ForwardInferenceReLU(x, mid)
	h = b.Conv2.ForwardInference(h, out)
	addScaled(h.Data, x.Data, h.Data, b.ResScale)
	return h
}

// addScaled writes out[i] = x[i] + scale*h[i]; out may be h. The
// operands are locals resliced to one length so the loop reloads nothing
// and checks no bounds: after the SIMD kernels it is a visible share of
// a frame.
func addScaled(out, x, h []float32, scale float32) {
	out, x = out[:len(h)], x[:len(h)]
	for i, v := range h {
		out[i] = x[i] + scale*v
	}
}

// Backward splits the gradient across the residual and identity paths.
func (b *ResBlock) Backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor {
	gBranch := tensor.Ensure(a.Next(), gy.Shape...)
	for i, g := range gy.Data {
		gBranch.Data[i] = g * b.ResScale
	}
	g := b.Conv2.Backward(a, gBranch)
	g = b.Act.Backward(a, g)
	g = b.Conv1.Backward(a, g)
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
}

// Forward performs the depth-to-space rearrangement.
func (p *PixelShuffle) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	p.shape = append(p.shape[:0], x.Shape...)
	return p.ForwardInference(x, a.Next())
}

// ForwardInference performs the same rearrangement into out and keeps
// no state for Backward.
func (p *PixelShuffle) ForwardInference(x, out *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.outShape(x)
	out = tensor.Ensure(out, n, c, h, w)
	p.shuffleInto(x, out)
	return out
}

// outShape validates the channel count and returns the (N, C/r², H·r,
// W·r) output shape.
func (p *PixelShuffle) outShape(x *tensor.Tensor) (n, c, h, w int) {
	r := p.R
	if x.Shape[1]%(r*r) != 0 {
		panic("nn: PixelShuffle channel count not divisible by r²")
	}
	return x.Shape[0], x.Shape[1] / (r * r), x.Shape[2] * r, x.Shape[3] * r
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

// Backward performs the inverse space-to-depth rearrangement on gy: a
// permutation, so every element of gx is written.
func (p *PixelShuffle) Backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.shape[0], p.shape[1], p.shape[2], p.shape[3]
	r := p.R
	oc := c / (r * r)
	gx := tensor.Ensure(a.Next(), n, c, h, w)
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
	gw      []float32 // reusable weight-gradient staging buffer
}

// NewDense creates a fully connected layer, Xavier-initialized from rng.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{In: in, Out: out, Wt: newParam("dense.w", out, in), Bias: newParam("dense.b", out)}
	d.Wt.W.Randn(rng, math.Sqrt(1.0/float64(in)))
	return d
}

// Forward computes x·Wᵀ + b for a batch of row vectors.
func (d *Dense) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	d.x = x
	return d.ForwardInference(x, a.Next())
}

// ForwardInference computes x·Wᵀ + b into out, keeping no state for
// Backward.
func (d *Dense) ForwardInference(x, out *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	out = tensor.Ensure(out, n, d.Out)
	tensor.MatMulBT(x.Data, d.Wt.W.Data, out.Data, n, d.In, d.Out)
	for i := 0; i < n; i++ {
		row := out.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.Bias.W.Data[j]
		}
	}
	return out
}

// Backward computes input gradients and accumulates weight/bias gradients.
func (d *Dense) Backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor {
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
	gx := tensor.Ensure(a.Next(), n, d.In)
	tensor.MatMul(gy.Data, d.Wt.W.Data, gx.Data, n, d.Out, d.In)
	return gx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.Wt, d.Bias} }

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

// MSELoss returns the mean squared error of pred against target and,
// when grad is non-nil, writes the gradient of that loss with respect to
// pred into it (shaped via tensor.Ensure). An evaluation passes nil and
// pays for no gradient.
func MSELoss(pred, target, grad *tensor.Tensor) float64 {
	if pred.Len() != target.Len() {
		panic("nn: MSELoss size mismatch")
	}
	if grad != nil {
		tensor.Ensure(grad, pred.Shape...)
	}
	n := float64(pred.Len())
	var sum float64
	for i, v := range pred.Data {
		d := float64(v) - float64(target.Data[i])
		sum += d * d
		if grad != nil {
			grad.Data[i] = float32(2 * d / n)
		}
	}
	return sum / n
}
