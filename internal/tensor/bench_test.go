package tensor

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks sized like the dcSR-1 body convolution (16→16
// channels, 3×3, so K = 144) on a 480×270 frame (n = 129600 output
// pixels) — the exact GEMM shape the decoder hot loop runs per layer.
const (
	benchM = 16
	benchK = 144
	benchN = 480 * 270
)

func benchMats(n int) (a, b, out []float32) {
	rng := rand.New(rand.NewSource(1))
	return randSlice(rng, benchM*benchK), randSlice(rng, benchK*n), make([]float32, benchM*n)
}

func BenchmarkGEMM(b *testing.B) {
	am, bm, out := benchMats(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmRows(am, bm, out, 0, benchM, benchK, benchN, benchN, epilogue{})
	}
}

func BenchmarkGEMMFused(b *testing.B) {
	am, bm, out := benchMats(benchN)
	rng := rand.New(rand.NewSource(2))
	bias := randSlice(rng, benchM)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmRows(am, bm, out, 0, benchM, benchK, benchN, benchN, epilogue{bias: bias, relu: true})
	}
}

func BenchmarkGEMMRef(b *testing.B) {
	am, bm, out := benchMats(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmulRef(am, bm, out, benchM, benchK, benchN)
	}
}

// BenchmarkConv2DInfer270p is the float32 body convolution (16→16, 3×3,
// ReLU) over a 480×270 frame once per lane the host has
// (BenchmarkConv2DInfer270p/{avx512,avx2,portable}), so an AVX2-only
// host's speed is measurable on an AVX-512 one; run it at -cpu 1, like
// the gated tensor.conv_f32_body_ms.
func BenchmarkConv2DInfer270p(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	spec := ConvSpec{InC: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}
	x := New(1, 16, 270, 480)
	copy(x.Data, randSlice(rng, x.Len()))
	w := New(16, 16, 3, 3)
	copy(w.Data, randSlice(rng, w.Len()))
	bias := New(16)
	for _, l := range kernelLanes {
		b.Run(l.name, func(b *testing.B) {
			if !l.available() {
				b.Skipf("%s lane: not supported by this host or build", l.name)
			}
			withLane(l, func() {
				out := Conv2DInfer(x, w, bias, spec, true, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = Conv2DInfer(x, w, bias, spec, true, out)
				}
			})
		})
	}
}

func BenchmarkIm2col270p(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	spec := ConvSpec{InC: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}
	x := randSlice(rng, 16*270*480)
	col := make([]float32, 144*270*480)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im2col(x, 16, 270, 480, spec, col)
	}
}
