package nn

import (
	"math"

	"dcsr/internal/tensor"
)

// Int8 inference path. Quantized inference mirrors the float32
// ForwardInference contract layer for layer: no grad state, output into
// caller-supplied tensors, zero steady-state allocations. Every
// convolution reads its input from one caller-supplied activation map
// (tensor.Int8Map): a convolution quantizes its float32 input into it,
// and a residual block's first convolution leaves its output there,
// quantized for the second — the map is dead once a layer returns, so
// one per pass serves every layer. The scheme is symmetric linear
// quantization with per-output-channel weight scales and one calibrated
// per-layer activation scale:
//
//	x_q = round(x · 127/actMax)          (per layer, calibrated)
//	w_q[oc] = round(w / wScale[oc])      (per output channel)
//	out = (Σ x_q·w_q) · wScale[oc]·actMax/127 + bias
//
// Calibration records each conv input's max absolute value while the
// float32 path runs over representative frames — for dcSR that is a
// handful of the cluster's own training frames, which is exactly the
// distribution the model will see (the data-centric premise). Layers
// without arithmetic of their own (ReLU, PixelShuffle) run their float32
// code on the requantized activations, so the int8 graph is the float32
// graph with only the convolutions swapped.

// conv2DInt8 is the quantized execution state of a Conv2D, built by
// QuantizeInt8 and owned by the layer.
type conv2DInt8 struct {
	grid   *int8Grid // the (OutC, InC·K·K) weights, one scale per output channel
	scales []float32 // per-output-channel requantization multiplier
	inInv  float32   // input quantization multiplier 127/actMax
}

// int8Grid is a weight's int8 form: one code per element and one scale
// per dim-0 row (per output channel of a convolution). The float32
// weights it stands for are its dequantization, code × row scale rounded
// to float32. A grid is never edited once built: whatever rewrites the
// weights drops it instead.
type int8Grid struct {
	codes  []int8    // in [−127, 127]
	scales []float32 // finite and positive
}

// quantizeGrid quantizes w, rows rows of equal length, row by row with
// quantizeRowInt8.
func quantizeGrid(w []float32, rows int) *int8Grid {
	g := &int8Grid{codes: make([]int8, len(w)), scales: make([]float32, rows)}
	n := len(w) / rows
	for r := range g.scales {
		g.scales[r] = quantizeRowInt8(w[r*n:(r+1)*n], g.codes[r*n:(r+1)*n])
	}
	return g
}

// pin makes g the parameter's grid and W its dequantization. The product
// is rounded on its own (the explicit conversion), so no build fuses it
// into a neighbouring add.
func (p *Param) pin(g *int8Grid) {
	p.grid = g
	n := len(g.codes) / len(g.scales)
	for r, s := range g.scales {
		row := p.W.Data[r*n : (r+1)*n]
		for i, c := range g.codes[r*n : (r+1)*n] {
			row[i] = float32(s * float32(c))
		}
	}
}

// BeginCalibration puts the convolution into calibration mode: until
// EndCalibration, every ForwardInference observes its input's max
// absolute value into the layer's activation range.
func (c *Conv2D) BeginCalibration() {
	c.calibrating = true
	c.actMax = 0
	c.int8 = nil
}

// EndCalibration leaves calibration mode, freezing the observed
// activation range.
func (c *Conv2D) EndCalibration() { c.calibrating = false }

// ActMax returns the calibrated input activation range (0 before any
// calibration pass has run).
func (c *Conv2D) ActMax() float32 { return c.actMax }

// SetActMax installs a previously calibrated activation range, e.g. one
// restored from a serving manifest, so QuantizeInt8 can rebuild the
// int8 state without rerunning calibration frames.
func (c *Conv2D) SetActMax(m float32) { c.actMax = m }

// Int8Ready reports whether QuantizeInt8 has built the quantized state.
func (c *Conv2D) Int8Ready() bool { return c.int8 != nil }

// QuantizeInt8 builds the layer's int8 inference state from the current
// weights and the calibrated activation range. Weights are quantized
// per output channel (each flattened InC·K·K row gets its own symmetric
// scale) — or, when the weights carry a pinned grid (SnapInt8, a dcW6
// payload), that grid is used as it stands: re-quantizing its
// dequantization would not always give back its scales bit for bit. The
// per-channel requantization multiplier folds the weight and activation
// scales so the kernel epilogue is a single multiply. Must be called
// again after any weight update.
func (c *Conv2D) QuantizeInt8() {
	g := c.Wt.grid
	if g == nil {
		g = quantizeGrid(c.Wt.W.Data, c.Spec.OutC)
	}
	q := &conv2DInt8{grid: g, scales: make([]float32, c.Spec.OutC)}
	actScale := c.actMax / 127
	if c.actMax > 0 {
		q.inInv = 127 / c.actMax
	}
	for oc, wScale := range g.scales {
		q.scales[oc] = wScale * actScale
	}
	c.int8 = q
}

// SnapInt8 pins the int8 weights QuantizeInt8 built as the layer's grid
// and makes W their dequantization, so float32 inference, a dcW6 payload
// (EncodeWeightsGrid) and int8 inference all hold the weights the int8
// state runs. The int8 state itself does not change.
func (c *Conv2D) SnapInt8() {
	if c.int8 == nil {
		panic("nn: Conv2D SnapInt8 before QuantizeInt8")
	}
	c.Wt.pin(c.int8.grid)
}

// ForwardInferenceInt8 runs the convolution on the int8 kernel path:
// quantize the input into am with the calibrated scale, int8×int8 →
// int32 accumulate, requantize + bias in the epilogue.
func (c *Conv2D) ForwardInferenceInt8(x, out *tensor.Tensor, am *tensor.Int8Map) *tensor.Tensor {
	q := c.int8
	if q == nil {
		panic("nn: Conv2D int8 inference before QuantizeInt8")
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.Spec.OutSize(h, w)
	out = tensor.Ensure(out, n, c.Spec.OutC, oh, ow)
	in, plane := c.Spec.InC*h*w, c.Spec.OutC*oh*ow
	for i := 0; i < n; i++ {
		am.Quantize(x.Data[i*in:(i+1)*in], c.Spec.InC, h, w, c.Spec.Pad, q.inInv)
		tensor.Conv2DInt8Map(am, q.grid.codes, q.scales, c.Bias.W.Data, c.Spec, false, out.Data[i*plane:(i+1)*plane])
	}
	return out
}

// ForwardInferenceInt8 runs the residual block on the int8 path,
// mirroring ForwardInference: the first convolution (with ReLU) runs in
// place in am and leaves there the second's quantized input — the
// float32 value it requantizes, quantized in register, so no float32
// map is written between the two — and the residual add is float32.
func (b *ResBlock) ForwardInferenceInt8(x, out *tensor.Tensor, am *tensor.Int8Map) *tensor.Tensor {
	q1, q2 := b.Conv1.int8, b.Conv2.int8
	if q1 == nil || q2 == nil {
		panic("nn: ResBlock int8 inference before QuantizeInt8")
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out = tensor.Ensure(out, x.Shape...)
	size := c * h * w
	for i := 0; i < n; i++ {
		am.Quantize(x.Data[i*size:(i+1)*size], c, h, w, b.Conv1.Spec.Pad, q1.inInv)
		tensor.Conv2DInt8MapReLU(am, q1.grid.codes, q1.scales, b.Conv1.Bias.W.Data, b.Conv1.Spec, q2.inInv)
		tensor.Conv2DInt8Map(am, q2.grid.codes, q2.scales, b.Conv2.Bias.W.Data, b.Conv2.Spec, false, out.Data[i*size:(i+1)*size])
	}
	addScaled(out.Data, x.Data, out.Data, b.ResScale)
	return out
}

// quantizeRowInt8 symmetrically quantizes row into dst and returns the
// scale: maxabs/127, or 1 for an all-zero row.
func quantizeRowInt8(row []float32, dst []int8) float32 {
	var maxAbs float32
	for _, v := range row {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	for i, v := range row {
		q := math.Round(float64(v / scale))
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}
