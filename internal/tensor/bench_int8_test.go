package tensor

import (
	"math/rand"
	"testing"
)

// Int8 twins of the float32 kernel benchmarks, at the same dcSR-1 body
// shapes, so the quantization speedup is a one-to-one comparison.

func benchMatsInt8(n int) (w, rec []int8, scales, bias, out []float32) {
	rng := rand.New(rand.NewSource(1))
	scales = make([]float32, benchM)
	for i := range scales {
		scales[i] = 1e-4
	}
	return randInt8Slice(rng, benchM*benchK), randInt8Slice(rng, n*benchK),
		scales, randSlice(rng, benchM), make([]float32, benchM*n)
}

func BenchmarkGEMMInt8(b *testing.B) {
	w, rec, scales, bias, out := benchMatsInt8(benchN)
	wp, wsum, rp, rsum, g := packOperands(w, rec, benchM, benchK, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmInt8Rows(wp, wsum, rp, rsum, out, benchM, g, benchN, 0, benchN, scales, bias, true)
	}
}

// BenchmarkGEMMInt8Packed includes per-call record packing, the upper
// bound on what a consumer that cannot share packed sections would pay.
func BenchmarkGEMMInt8Packed(b *testing.B) {
	w, rec, scales, bias, out := benchMatsInt8(benchN)
	wp, wsum, rp, rsum, g := packOperands(w, rec, benchM, benchK, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packInt8HighLanes(rec, benchN, benchK, rp, rsum)
		gemmInt8Rows(wp, wsum, rp, rsum, out, benchM, g, benchN, 0, benchN, scales, bias, true)
	}
}

func BenchmarkGEMMInt8Ref(b *testing.B) {
	w, rec, scales, bias, out := benchMatsInt8(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmulInt8Ref(w, rec, out, benchM, benchK, benchN, scales, bias, true)
	}
}

// BenchmarkConv2DInferInt8 runs the dcSR-1 body convolution (16→16 3×3,
// ReLU) at the e2e bench's 480×272 on each int8 lane this host has, so
// the lane ratios are one command away; like tensor.conv_int8_body_ms it
// includes laying the planar input out as an activation map.
func BenchmarkConv2DInferInt8(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	spec := ConvSpec{InC: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}
	cc := makeInt8ConvCase(rng, 1, 272, 480, spec)
	for _, l := range kernelLanes {
		b.Run(l.name, func(b *testing.B) {
			if !l.available() {
				b.Skipf("%s lane: not supported by this host or build", l.name)
			}
			withLane(l, func() {
				out := Conv2DInferInt8(cc.xq, 1, spec.InC, cc.h, cc.w, cc.wq, cc.scales, cc.bias, spec, true, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = Conv2DInferInt8(cc.xq, 1, spec.InC, cc.h, cc.w, cc.wq, cc.scales, cc.bias, spec, true, out)
				}
			})
		})
	}
}
