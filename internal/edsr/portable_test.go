package edsr

import (
	"bytes"
	"crypto/sha256"
	"testing"
	_ "unsafe" // for go:linkname

	"dcsr/internal/nn"
	"dcsr/internal/video"
)

// tensorUseAVX2, tensorUseAVX512 and tensorUseAMX are internal/tensor's
// unexported kernel switches, reached by name because the package exports no way
// to choose a kernel — and must not: production code runs whatever
// CPUID selected.
//
//go:linkname tensorUseAVX2 dcsr/internal/tensor.useAVX2
var tensorUseAVX2 bool

//go:linkname tensorUseAVX512 dcsr/internal/tensor.useAVX512
var tensorUseAVX512 bool

//go:linkname tensorUseAMX dcsr/internal/tensor.useAMX
var tensorUseAMX bool

// kernelLane is one set of kernels tensor's entry points can run on;
// kernelLanes lists them fastest first, the order CPUID picks in.
type kernelLane struct {
	name              string
	avx2, avx512, amx bool
}

var kernelLanes = []kernelLane{
	{"amx", true, true, true}, {"avx512", true, true, false}, {"avx2", true, false, false}, {"portable", false, false, false},
}

// hostAVX2, hostAVX512 and hostAMX are the CPUID decision, before any
// test switches lanes.
var hostAVX2, hostAVX512, hostAMX = tensorUseAVX2, tensorUseAVX512, tensorUseAMX

func (l kernelLane) available() bool {
	return (hostAVX2 || !l.avx2) && (hostAVX512 || !l.avx512) && (hostAMX || !l.amx)
}

// withLane runs fn on lane l, restoring the CPUID decision afterwards.
func withLane(l kernelLane, fn func()) {
	prevAVX2, prevAVX512, prevAMX := tensorUseAVX2, tensorUseAVX512, tensorUseAMX
	tensorUseAVX2, tensorUseAVX512, tensorUseAMX = l.avx2, l.avx512, l.amx
	defer func() { tensorUseAVX2, tensorUseAVX512, tensorUseAMX = prevAVX2, prevAVX512, prevAMX }()
	fn()
}

// float32Tests are the float32 inference path's golden, parity and
// allocation tests that the lane tests re-run.
var float32Tests = []struct {
	name string
	fn   func(*testing.T)
}{
	{"ForwardInferenceGolden", TestForwardInferenceGolden},
	{"ForwardInferenceMatchesForward", TestForwardInferenceMatchesForward},
	{"EnhanceSteadyStateAllocs", TestEnhanceSteadyStateAllocs},
}

// int8Tests are the quantized path's parity, determinism and allocation
// tests — the pinned golden among them — that the lane tests re-run.
var int8Tests = []struct {
	name string
	fn   func(*testing.T)
}{
	{"EnhanceInt8Golden", TestEnhanceInt8Golden},
	{"EnhanceInt8CloseToFloat32", TestEnhanceInt8CloseToFloat32},
	{"EnhanceInt8DeterministicAcrossWorkers", TestEnhanceInt8DeterministicAcrossWorkers},
	{"EnhanceInt8SteadyStateAllocs", TestEnhanceInt8SteadyStateAllocs},
	{"ActScalesRoundTrip", TestActScalesRoundTrip},
	{"EnhanceYUVGolden", TestEnhanceYUVGolden}, // both precisions
}

// TestPortablePath re-runs the parity, determinism and allocation tests
// on the portable kernels, which an AVX2 host otherwise never executes.
func TestPortablePath(t *testing.T) {
	if !hostAVX2 {
		t.Skip("the portable kernels are already the only path here")
	}
	withLane(kernelLanes[3], func() {
		for _, tc := range float32Tests {
			t.Run(tc.name, tc.fn)
		}
		for _, tc := range int8Tests {
			t.Run(tc.name, tc.fn)
		}
	})
}

// TestAVX2Path is TestPortablePath's twin for the AVX2 lane, which an
// AVX-512 host otherwise takes only for strided int8 convolutions and
// the training GEMMs.
func TestAVX2Path(t *testing.T) {
	if !hostAVX512 {
		t.Skip("no AVX-512 lane here: the AVX2 lane, if any, is already the default")
	}
	withLane(kernelLanes[2], func() {
		for _, tc := range float32Tests {
			t.Run(tc.name, tc.fn)
		}
		for _, tc := range int8Tests {
			t.Run(tc.name, tc.fn)
		}
	})
}

// TestVNNIPath is TestPortablePath's twin for the VNNI lane, which an
// AMX host otherwise never takes for this model's convolutions: without
// it the pinned int8 golden would stop running on the VNNI lane there.
func TestVNNIPath(t *testing.T) {
	if !hostAMX {
		t.Skip("no AMX lane here: the VNNI lane, if any, is already the default")
	}
	withLane(kernelLanes[1], func() {
		for _, tc := range int8Tests {
			t.Run(tc.name, tc.fn)
		}
	})
}

// TestKernelPathsIdentical is the end-to-end statement of what the
// assembly promises: 20 training steps, then Enhance and EnhanceInt8 of
// a 64×48 frame, produce the same weight digest and the same frame
// bytes whichever lane ran — so no golden, model digest or frame hash
// depends on the host's CPU. A lane the host lacks is skipped.
func TestKernelPathsIdentical(t *testing.T) {
	if !hostAVX2 {
		t.Skip("only one kernel path in this build")
	}
	if !hostAVX512 {
		t.Log("avx512 lane skipped: this host has no AVX-512 VNNI")
	}
	if !hostAMX {
		t.Log("amx lane skipped: this host or kernel has no AMX-INT8")
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
	for _, l := range kernelLanes {
		if !l.available() {
			continue
		}
		withLane(l, func() {
			lDigest, lF32, lInt8 := run()
			if lDigest != digest {
				t.Errorf("%s lane: trained weights differ from the default lane's: %x vs %x", l.name, lDigest, digest)
			}
			if !bytes.Equal(lF32, f32) {
				t.Errorf("%s lane: Enhance output differs from the default lane's", l.name)
			}
			if !bytes.Equal(lInt8, int8) {
				t.Errorf("%s lane: EnhanceInt8 output differs from the default lane's", l.name)
			}
		})
	}
}
