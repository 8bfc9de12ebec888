// Package nn implements the small neural-network toolkit that dcSR's models
// are built from: 2-D convolution, ReLU, residual blocks, pixel-shuffle
// upsampling, fully connected layers, MSE loss, and the Adam optimizer —
// all in pure Go on float32 tensors with exact backpropagation.
//
// The design mirrors the classic define-by-stack style: a Layer owns its
// parameters and caches whatever it needs during Forward to compute
// Backward. Networks here are small (dcSR micro models are 4–16 residual
// blocks of ≤16 filters); the heavy lifting (im2col convolutions, blocked
// GEMM kernels) lives in internal/tensor. Each layer has one pass per
// job: Forward and Backward train, and whatever else runs a network
// whole-tensor (the VAE's feature extraction) runs Forward through its
// own arena. The decoder hot loop alone has a no-grad path, the row
// entry points, in either precision: Conv2D.ConvRows and
// Conv2D.Int8ConvRows prepare a convolution for one pass of
// row-at-a-time inference (tensor.ConvRows, tensor.Int8ConvRows) with
// bias, ReLU and the residual add fused into its epilogue, which edsr's
// row pipeline drives.
//
// Layers own parameters, not activations. A training pass takes its
// tensors from the tensor.Arena handed to Forward and Backward (whoever
// runs the step owns it and resets it between steps); an inference pass
// writes where it is told (edsr.Workspace holds the row rings one EDSR
// pass needs). So a layer costs its weights and nothing else, and models
// that take turns share one working set.
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
	// Grad is the accumulated gradient: nil until something trains the
	// model (ZeroGrad, Adam.Step or a layer's Backward allocates it,
	// zeroed), so a model that only runs inference carries none.
	Grad *tensor.Tensor

	// grid, when set, is the int8 grid W is exactly the dequantization of
	// (Conv2D.SnapInt8, or a dcW6 payload); QuantizeInt8 runs it as it
	// stands. Every write of W — Adam.Step, CopyWeights, LoadWeights of a
	// dcW1 payload, ApplyWeightsDelta's dst — drops it.
	grid *int8Grid
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...)}
}

// grad returns the accumulated gradient, allocating it zeroed on first
// use: the one place Grad comes into being.
func (p *Param) grad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.New(p.W.Shape...)
	}
	return p.Grad
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.grad().Zero() }

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
// Conv2D also has the row entry points (ConvRows, Int8ConvRows), the
// no-grad path: the same bits as Forward, nothing kept for Backward,
// each output row written where the caller says, so steady-state
// inference allocates nothing and the caller decides how much of a pass
// it keeps alive.
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
// given stride and padding, every weight zero: the layout a payload
// decodes into. InitHe draws trainable starting weights.
func NewConv2D(inC, outC, k, stride, pad int) *Conv2D {
	return &Conv2D{
		Spec: tensor.ConvSpec{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad},
		Wt:   newParam("conv.w", outC, inC, k, k),
		Bias: newParam("conv.b", outC),
	}
}

// InitHe draws the weights from rng, He-initialized (the bias stays
// zero), and returns c.
func (c *Conv2D) InitHe(rng *rand.Rand) *Conv2D {
	fanIn := float64(c.Spec.InC * c.Spec.K * c.Spec.K)
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

// Observe widens the calibrated activation range to m, the max-abs of
// some of the layer's input (tensor.MaxAbs of a row, say), while the
// layer is in calibration mode (see nn_int8.go); otherwise it is a
// no-op. The fold is a max that skips NaN, so any split of the input
// into parts, observed in any order, calibrates what the whole does.
func (c *Conv2D) Observe(m float32) {
	if c.calibrating && m > c.actMax {
		c.actMax = m
	}
}

// ConvRows prepares the convolution for one pass of row-at-a-time
// inference over rows width pixels wide on the float32 kernels
// (tensor.ConvRows), with relu a fused ReLU; the caller releases it.
// Its rows are tensor.Conv2DInfer's bits. A row pass observes nothing:
// while calibrating, the caller hands Observe its input rows' max-abs.
func (c *Conv2D) ConvRows(width int, relu bool) tensor.ConvRows {
	return tensor.NewConvRows(c.Wt.W, c.Bias.W, c.Spec, width, relu)
}

// Backward propagates gy through the convolution and lets go of what
// Forward remembered, so a trained layer pins none of its last step.
func (c *Conv2D) Backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor {
	gx := a.Next()
	tensor.Conv2DBackwardInto(gx, gy, c.cols, c.x.Shape, c.Wt.W, c.Wt.grad(), c.Bias.grad(), c.Spec)
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

// NewResBlock builds a residual block over nf feature maps with 3×3
// convs, every weight zero (see NewConv2D).
func NewResBlock(nf int, resScale float32) *ResBlock {
	return &ResBlock{
		Conv1:    NewConv2D(nf, nf, 3, 1, 1),
		Conv2:    NewConv2D(nf, nf, 3, 1, 1),
		Act:      &ReLU{},
		ResScale: resScale,
	}
}

// InitHe draws both convolutions' weights from rng, Conv1's first, and
// returns b.
func (b *ResBlock) InitHe(rng *rand.Rand) *ResBlock {
	b.Conv1.InitHe(rng)
	b.Conv2.InitHe(rng)
	return b
}

// Forward computes x + ResScale · conv2(relu(conv1(x))).
func (b *ResBlock) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	h := b.Conv1.Forward(a, x)
	h = b.Act.Forward(a, h)
	h = b.Conv2.Forward(a, h)
	out := tensor.Ensure(a.Next(), x.Shape...)
	tensor.AddScaled(out.Data, x.Data, h.Data, b.ResScale)
	return out
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

// Forward performs the depth-to-space rearrangement, one output row at
// a time (ShuffleRow, the row pipeline's upsampler).
func (p *PixelShuffle) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	p.shape = append(p.shape[:0], x.Shape...)
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	r := p.R
	if c%(r*r) != 0 {
		panic("nn: PixelShuffle channel count not divisible by r²")
	}
	oc := c / (r * r)
	out := tensor.Ensure(a.Next(), n, oc, h*r, w*r)
	for ni := 0; ni < n; ni++ {
		src, dst := x.Data[ni*c*h*w:], out.Data[ni*c*h*w:]
		for y := 0; y < h; y++ {
			for dy := 0; dy < r; dy++ {
				p.ShuffleRow(dst[(y*r+dy)*w*r:], h*r*w*r, src[y*w:], h*w, oc, w, dy)
			}
		}
	}
	return out
}

// ShuffleRow writes output row dy of the R that one input row becomes:
// src holds the row's oc·R² channels of w pixels, srcStride floats
// apart, and dst receives the oc channels of w·R pixels, dstStride
// apart — input channel co·R² + dy·R + dx's pixel x lands at output
// pixel x·R + dx of channel co.
func (p *PixelShuffle) ShuffleRow(dst []float32, dstStride int, src []float32, srcStride, oc, w, dy int) {
	r := p.R
	for co := 0; co < oc; co++ {
		d := dst[co*dstStride : co*dstStride+w*r]
		for dx := 0; dx < r; dx++ {
			s := src[(co*r*r+dy*r+dx)*srcStride:][:w]
			for x, v := range s {
				d[x*r+dx] = v
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

// NewDense creates a fully connected layer, every weight zero (see
// NewConv2D).
func NewDense(in, out int) *Dense {
	return &Dense{In: in, Out: out, Wt: newParam("dense.w", out, in), Bias: newParam("dense.b", out)}
}

// InitXavier draws the weights from rng, Xavier-initialized (the bias
// stays zero), and returns d.
func (d *Dense) InitXavier(rng *rand.Rand) *Dense {
	d.Wt.W.Randn(rng, math.Sqrt(1.0/float64(d.In)))
	return d
}

// Forward computes x·Wᵀ + b for a batch of row vectors.
func (d *Dense) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	d.x = x
	n := x.Shape[0]
	out := tensor.Ensure(a.Next(), n, d.Out)
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
	gradW, gradB := d.Wt.grad().Data, d.Bias.grad().Data
	for i, v := range gw {
		gradW[i] += v
	}
	for i := 0; i < n; i++ {
		row := gy.Data[i*d.Out : (i+1)*d.Out]
		for j, v := range row {
			gradB[j] += v
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
		sum += float64(d * d)
		if grad != nil {
			grad.Data[i] = float32(2 * d / n)
		}
	}
	return sum / n
}
