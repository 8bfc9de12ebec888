package edsr

import (
	"fmt"
	"math"

	"dcsr/internal/nn"
	"dcsr/internal/video"
)

// Int8 inference. A dcSR micro model serves exactly one cluster of one
// video, so its activation distribution at serving time is the
// distribution of the cluster's own training frames — calibrating the
// per-layer activation scales on a handful of those frames is
// representative by construction (the same data-centric argument that
// lets a 4-block EDSR match a general model on its own cluster). The
// quantized path is ForwardInference's own row pipeline with every
// convolution on the int8 kernels (tensor.Int8ConvRows, reading
// tensor.Int8Map rings) and the structural glue — residual adds, pixel
// shuffle, the global image residual — in float32, in the same
// Workspace. Calibration folds each convolution's input max-abs row by
// row (nn.Conv2D.Observe): a max that skips NaN, so the split into rows
// and stripes leaves ActScales' bits as a whole-frame pass's.

// convs enumerates the model's convolutions in forward order. This is
// the calibration/quantization unit: every conv owns one activation
// scale (its input) and per-output-channel weight scales.
func (m *Model) convs() []*nn.Conv2D {
	cs := make([]*nn.Conv2D, 0, 2+2*len(m.body)+len(m.ups))
	cs = append(cs, m.head)
	for _, b := range m.body {
		cs = append(cs, b.Conv1, b.Conv2)
	}
	cs = append(cs, m.bodyConv)
	for _, u := range m.ups {
		cs = append(cs, u.conv)
	}
	cs = append(cs, m.tail)
	return cs
}

// Calibrate records per-layer activation ranges by running the float32
// inference path over the given frames (typically a few of the
// cluster's own training inputs), then builds every convolution's int8
// state. Must be called after training; call again if weights change.
func (m *Model) Calibrate(frames []*video.RGB) error {
	_, err := m.CalibrateEnhance(frames)
	return err
}

// CalibrateEnhance is Calibrate that also returns what the calibration
// passes computed anyway: Enhance of every frame, bit for bit. A quality
// gate that compares the two precisions on the calibration frames needs
// no float32 pass of its own.
func (m *Model) CalibrateEnhance(frames []*video.RGB) ([]*video.RGB, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("edsr: Calibrate needs at least one frame")
	}
	cs := m.convs()
	for _, c := range cs {
		c.BeginCalibration()
	}
	m.calibrating = true
	// Deferred so a pass that panics leaves no convolution observing.
	defer func() {
		m.calibrating = false
		for _, c := range cs {
			c.EndCalibration()
		}
	}()
	out := make([]*video.RGB, len(frames))
	for i, f := range frames {
		out[i] = m.Enhance(f)
	}
	for _, c := range cs {
		c.QuantizeInt8()
	}
	return out, nil
}

// ActScales returns the calibrated activation ranges in forward conv
// order, for persisting alongside the model so a later process can
// re-arm the int8 path without calibration frames.
func (m *Model) ActScales() []float32 {
	cs := m.convs()
	out := make([]float32, len(cs))
	for i, c := range cs {
		out[i] = c.ActMax()
	}
	return out
}

// CalibrateFromScales rebuilds the int8 state from previously recorded
// ActScales output, bit-identical to the calibration run that produced
// them (given identical weights). The scales arrive from a manifest or
// an artifact, so they are checked first: a NaN, infinite or negative
// one — or one so small that its quantization multiplier 127/scale
// overflows — is an error and leaves the model as it was. Zero is legal:
// a convolution behind a dead ReLU calibrates to it.
func (m *Model) CalibrateFromScales(scales []float32) error {
	cs := m.convs()
	if len(scales) != len(cs) {
		return fmt.Errorf("edsr: got %d activation scales, model has %d convs", len(scales), len(cs))
	}
	for i, s := range scales {
		if !(s >= 0) || s > math.MaxFloat32 || (s > 0 && 127/s > math.MaxFloat32) {
			return fmt.Errorf("edsr: activation scale %d is %v, want 0 or a finite positive range", i, s)
		}
	}
	for i, c := range cs {
		c.SetActMax(scales[i])
		c.QuantizeInt8()
	}
	return nil
}

// SnapInt8 makes the calibrated int8 state the model's weights: every
// convolution's float32 weights become the dequantization of the int8
// grid it runs (nn.Conv2D.SnapInt8), so the model's float32 path, its
// int8-grid payload (nn.EncodeWeightsGrid) and a viewer that loads that
// payload all hold exactly the weights the int8 state runs. The int8
// state does not move, and a later CalibrateFromScales re-arms the same
// grid.
func (m *Model) SnapInt8() error {
	if !m.Int8Ready() {
		return fmt.Errorf("edsr: SnapInt8 on a model without int8 state")
	}
	for _, c := range m.convs() {
		c.SnapInt8()
	}
	return nil
}

// Int8Ready reports whether every convolution has quantized state.
func (m *Model) Int8Ready() bool {
	for _, c := range m.convs() {
		if !c.Int8Ready() {
			return false
		}
	}
	return true
}
