package nn

import "dcsr/internal/tensor"

// Sequential chains layers; Forward runs them left to right and Backward
// in reverse. It lives with the tests because nothing else composes
// layers generically: edsr and vae wire theirs by hand. Its inference
// runs on the row kernels (inferSeq).
type Sequential struct {
	Layers []Layer
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
