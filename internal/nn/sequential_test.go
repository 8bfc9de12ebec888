package nn

import "dcsr/internal/tensor"

// Sequential chains layers; Forward runs them left to right and Backward
// in reverse. It lives with the tests because nothing else composes
// layers generically: edsr and vae wire theirs by hand and own the
// tensors their inference passes write into, as this does (two
// destinations per layer — a ResBlock needs mid and out — plus the one
// int8 activation map).
type Sequential struct {
	Layers []Layer

	bufs []tensor.Tensor
	am   tensor.Int8Map
}

// Forward runs all layers in order.
func (s *Sequential) Forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(a, x)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gy = s.Layers[i].Backward(a, gy)
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

// ForwardInference runs all layers in order on the no-grad fast path.
func (s *Sequential) ForwardInference(x *tensor.Tensor) *tensor.Tensor { return s.infer(x, false) }

// ForwardInferenceInt8 runs each convolution and residual block on its
// int8 path when quantized, falling back to float32 per layer otherwise.
func (s *Sequential) ForwardInferenceInt8(x *tensor.Tensor) *tensor.Tensor { return s.infer(x, true) }

func (s *Sequential) infer(x *tensor.Tensor, int8Path bool) *tensor.Tensor {
	if s.bufs == nil {
		s.bufs = make([]tensor.Tensor, 2*len(s.Layers))
	}
	for i, l := range s.Layers {
		mid, out := &s.bufs[2*i], &s.bufs[2*i+1]
		switch l := l.(type) {
		case *Conv2D:
			x = l.forwardInference(x, out, s.mapIf(int8Path && l.Int8Ready()))
		case *ResBlock:
			// conv → ReLU → conv with the scaled residual add fused, as
			// edsr's row pipeline runs a block.
			am := s.mapIf(int8Path && l.Conv1.Int8Ready() && l.Conv2.Int8Ready())
			var h *tensor.Tensor
			if am == nil {
				h = l.Conv1.ForwardInferenceReLU(x, mid)
			} else {
				h = l.Conv1.forwardInference(x, mid, am)
				for i, v := range h.Data {
					if v < 0 {
						h.Data[i] = 0
					}
				}
			}
			x = l.Conv2.forwardInferenceResidual(h, x, l.ResScale, out, am)
		case *ReLU: // in place; the models fuse theirs into the convolution
			for i, v := range x.Data {
				if v < 0 {
					x.Data[i] = 0
				}
			}
		case *PixelShuffle:
			x = l.forwardInference(x, out)
		case *Dense:
			x = l.ForwardInference(x, out)
		default:
			panic("nn: Sequential has no inference path for this layer")
		}
	}
	return x
}

// mapIf is the activation map that runs a layer on its int8 kernels
// when on holds, nil (the float32 kernels) otherwise.
func (s *Sequential) mapIf(on bool) *tensor.Int8Map {
	if on {
		return &s.am
	}
	return nil
}

// Int8Ready reports whether every convolution is quantized.
func (s *Sequential) Int8Ready() bool {
	for _, l := range s.Layers {
		switch l := l.(type) {
		case *Conv2D:
			if !l.Int8Ready() {
				return false
			}
		case *ResBlock:
			if !l.Conv1.Int8Ready() || !l.Conv2.Int8Ready() {
				return false
			}
		}
	}
	return true
}
