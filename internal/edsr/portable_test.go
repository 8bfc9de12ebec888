package edsr

import (
	"bytes"
	"crypto/sha256"
	"testing"
	_ "unsafe" // for go:linkname

	"dcsr/internal/nn"
	"dcsr/internal/video"
)

// tensorUseAVX2 is internal/tensor's unexported kernel switch, reached
// by name because the package exports no way to choose a kernel — and
// must not: production code runs whatever CPUID selected.
//
//go:linkname tensorUseAVX2 dcsr/internal/tensor.useAVX2
var tensorUseAVX2 bool

// withPortableKernels runs fn on tensor's portable Go kernels.
func withPortableKernels(t testing.TB, fn func()) {
	t.Helper()
	prev := tensorUseAVX2
	tensorUseAVX2 = false
	defer func() { tensorUseAVX2 = prev }()
	fn()
}

// TestPortablePath re-runs the parity, determinism and allocation tests
// on the portable kernels, which an AVX2 host otherwise never executes.
func TestPortablePath(t *testing.T) {
	if !tensorUseAVX2 {
		t.Skip("the portable kernels are already the only path here")
	}
	withPortableKernels(t, func() {
		t.Run("ForwardInferenceMatchesForward", TestForwardInferenceMatchesForward)
		t.Run("EnhanceSteadyStateAllocs", TestEnhanceSteadyStateAllocs)
		t.Run("EnhanceInt8CloseToFloat32", TestEnhanceInt8CloseToFloat32)
		t.Run("EnhanceInt8DeterministicAcrossWorkers", TestEnhanceInt8DeterministicAcrossWorkers)
		t.Run("EnhanceInt8SteadyStateAllocs", TestEnhanceInt8SteadyStateAllocs)
		t.Run("ActScalesRoundTrip", TestActScalesRoundTrip)
	})
}

// TestKernelPathsIdentical is the end-to-end statement of what the
// assembly promises: 20 training steps, then Enhance and EnhanceInt8 of
// a 64×48 frame, produce the same weight digest and the same frame
// bytes whichever kernels ran — so no golden, model digest or frame
// hash depends on the host's CPU.
func TestKernelPathsIdentical(t *testing.T) {
	if !tensorUseAVX2 {
		t.Skip("only one kernel path in this build")
	}
	f := genFrame(t, 64, 48, 21)
	run := func() (digest [32]byte, f32, int8 []byte) {
		m, err := New(Config{Filters: 8, ResBlocks: 2}, 21)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train([]Pair{{Low: f, High: f}}, TrainOptions{Steps: 20, PatchSize: 16, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		if err := m.Calibrate([]*video.RGB{f}); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(nn.EncodeWeights(m.Params())), m.Enhance(f).Pix, m.EnhanceInt8(f).Pix
	}
	digest, f32, int8 := run()
	withPortableKernels(t, func() {
		pDigest, pF32, pInt8 := run()
		if pDigest != digest {
			t.Errorf("trained weights differ between kernel paths: %x vs %x", digest, pDigest)
		}
		if !bytes.Equal(pF32, f32) {
			t.Error("Enhance output differs between kernel paths")
		}
		if !bytes.Equal(pInt8, int8) {
			t.Error("EnhanceInt8 output differs between kernel paths")
		}
	})
}
