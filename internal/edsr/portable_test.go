package edsr

import (
	"bytes"
	"crypto/sha256"
	"testing"
	_ "unsafe" // for go:linkname

	"dcsr/internal/nn"
	"dcsr/internal/video"
)

// tensorUseAVX2 and tensorUseVNNI are internal/tensor's unexported
// kernel switches, reached by name because the package exports no way
// to choose a kernel — and must not: production code runs whatever
// CPUID selected.
//
//go:linkname tensorUseAVX2 dcsr/internal/tensor.useAVX2
var tensorUseAVX2 bool

//go:linkname tensorUseVNNI dcsr/internal/tensor.useVNNI
var tensorUseVNNI bool

// kernelLane is one set of kernels tensor's entry points can run on;
// kernelLanes lists them fastest first, the order CPUID picks in.
type kernelLane struct {
	name       string
	avx2, vnni bool
}

var kernelLanes = []kernelLane{{"vnni", true, true}, {"avx2", true, false}, {"portable", false, false}}

// hostAVX2 and hostVNNI are the CPUID decision, before any test
// switches lanes.
var hostAVX2, hostVNNI = tensorUseAVX2, tensorUseVNNI

func (l kernelLane) available() bool { return (hostAVX2 || !l.avx2) && (hostVNNI || !l.vnni) }

// withLane runs fn on lane l, restoring the CPUID decision afterwards.
func withLane(l kernelLane, fn func()) {
	prevAVX2, prevVNNI := tensorUseAVX2, tensorUseVNNI
	tensorUseAVX2, tensorUseVNNI = l.avx2, l.vnni
	defer func() { tensorUseAVX2, tensorUseVNNI = prevAVX2, prevVNNI }()
	fn()
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
}

// TestPortablePath re-runs the parity, determinism and allocation tests
// on the portable kernels, which an AVX2 host otherwise never executes.
func TestPortablePath(t *testing.T) {
	if !hostAVX2 {
		t.Skip("the portable kernels are already the only path here")
	}
	withLane(kernelLanes[2], func() {
		t.Run("ForwardInferenceMatchesForward", TestForwardInferenceMatchesForward)
		t.Run("EnhanceSteadyStateAllocs", TestEnhanceSteadyStateAllocs)
		for _, tc := range int8Tests {
			t.Run(tc.name, tc.fn)
		}
	})
}

// TestAVX2Path is TestPortablePath's twin for the AVX2 int8 lane, which
// a VNNI host otherwise takes only for strided convolutions.
func TestAVX2Path(t *testing.T) {
	if !hostVNNI {
		t.Skip("no VNNI lane here: the AVX2 lane, if any, is already the default")
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
	if !hostVNNI {
		t.Log("vnni lane skipped: this host has no AVX-512 VNNI")
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
