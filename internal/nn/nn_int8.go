package nn

import (
	"math"

	"dcsr/internal/tensor"
)

// Int8 inference path. Quantized inference is the float32 path with an
// activation map (tensor.Int8Map) in front of every convolution — the
// same contract: no grad state, output where the caller says, zero
// steady-state allocations, residual adds in the epilogue. Every
// convolution reads its input from a map: its float32 input rows are
// quantized into it with the layer's InputMultiplier, or, after a ReLU
// convolution (a residual block's first), that convolution writes its
// output there already quantized (tensor.Int8ConvRows.RowToMap). The
// scheme is symmetric linear quantization with per-output-channel
// weight scales and one calibrated per-layer activation scale:
//
//	x_q = round(x · 127/actMax)          (per layer, calibrated)
//	w_q[oc] = round(w / wScale[oc])      (per output channel)
//	out = (Σ x_q·w_q) · wScale[oc]·actMax/127 + bias
//
// Calibration records each conv input's max absolute value (Observe)
// while the float32 path runs over representative frames — for dcSR
// that is a handful of the cluster's own training frames, which is
// exactly the distribution the model will see (the data-centric
// premise). Layers without arithmetic of their own (ReLU, PixelShuffle)
// run their float32 code on the requantized activations, so the int8
// graph is the float32 graph with only the convolutions swapped.

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
// EndCalibration, every Observe folds the max absolute value it is
// handed into the layer's activation range. Nothing else observes.
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

// Int8ConvRows is ConvRows on the int8 kernels (tensor.Int8ConvRows),
// after QuantizeInt8: its rows read input rows quantized with
// InputMultiplier.
func (c *Conv2D) Int8ConvRows(width int, relu bool) tensor.Int8ConvRows {
	q := c.int8
	if q == nil {
		panic("nn: Conv2D int8 inference before QuantizeInt8")
	}
	return tensor.NewInt8ConvRows(q.grid.codes, q.scales, c.Bias.W.Data, c.Spec, width, relu)
}

// InputMultiplier is the multiplier, 127/ActMax (0 for a zero range),
// the layer's int8 kernels quantize their input with (after
// QuantizeInt8).
func (c *Conv2D) InputMultiplier() float32 {
	if c.int8 == nil {
		panic("nn: Conv2D int8 inference before QuantizeInt8")
	}
	return c.int8.inInv
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
