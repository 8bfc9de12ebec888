package nn

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// tensorUseAVX2 and tensorUseAVX512 are internal/tensor's unexported
// kernel switches, reached by name because the package exports no way
// to choose a kernel.
//
//go:linkname tensorUseAVX2 dcsr/internal/tensor.useAVX2
var tensorUseAVX2 bool

//go:linkname tensorUseAVX512 dcsr/internal/tensor.useAVX512
var tensorUseAVX512 bool

// TestPortablePath re-runs the gradient, parity and determinism tests
// on tensor's portable Go kernels, which an AVX2 host otherwise never
// executes.
func TestPortablePath(t *testing.T) {
	if !tensorUseAVX2 {
		t.Skip("the portable kernels are already the only path here")
	}
	prevAVX512 := tensorUseAVX512
	tensorUseAVX2, tensorUseAVX512 = false, false
	defer func() { tensorUseAVX2, tensorUseAVX512 = true, prevAVX512 }()
	t.Run("Conv2DGradients", TestConv2DGradients)
	t.Run("Conv2DStrideGradients", TestConv2DStrideGradients)
	t.Run("ResBlockGradients", TestResBlockGradients)
	t.Run("DenseGradients", TestDenseGradients)
	t.Run("SequentialForwardInferenceMatchesForward", TestSequentialForwardInferenceMatchesForward)
	t.Run("Conv2DInt8TracksFloat32", TestConv2DInt8TracksFloat32)
	t.Run("Conv2DInt8Deterministic", TestConv2DInt8Deterministic)
	t.Run("SequentialInt8FallsBackPerLayer", TestSequentialInt8FallsBackPerLayer)
	t.Run("Int8ResidualEpilogue", TestInt8ResidualEpilogue)
}
