package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randInt8Slice(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(255) - 127)
	}
	return s
}

// packOperands runs both pack passes for a w(m×k)·rec(cols×k)ᵀ problem:
// blocked-interleaved weights (single section per row) and flat records.
func packOperands(w, rec []int8, m, k, cols int) (wp, wsum, rp, rsum []uint64, g int) {
	g = packedGroups(k)
	wp = make([]uint64, m*g)
	wsum = make([]uint64, m)
	rp = make([]uint64, cols*g)
	rsum = make([]uint64, cols)
	packInt8RowsBlocked(w, m, k, 1, wp, wsum)
	packInt8HighLanes(rec, cols, k, rp, rsum)
	return wp, wsum, rp, rsum, g
}

// TestGemmInt8MatchesRef pins the blocked SWAR kernel bitwise against
// the naive int8 reference: the lane packing and bias-correction
// identity are exact, integer accumulation is order-independent, and
// both kernels share the requantInt8 epilogue expression, so parity is
// exact equality, not a tolerance.
func TestGemmInt8MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range gemmShapes {
		w := randInt8Slice(rng, sh.m*sh.k)
		rec := randInt8Slice(rng, sh.n*sh.k)
		scales := make([]float32, sh.m)
		for i := range scales {
			scales[i] = float32(rng.Float64()*0.01 + 1e-4)
		}
		bias := randSlice(rng, sh.m)
		wp, wsum, rp, rsum, g := packOperands(w, rec, sh.m, sh.k, sh.n)
		for _, relu := range []bool{false, true} {
			got := make([]float32, sh.m*sh.n)
			want := make([]float32, sh.m*sh.n)
			gemmInt8Rows(wp, wsum, rp, rsum, got, sh.m, g, sh.n, 0, sh.n, scales, bias, relu)
			matmulInt8Ref(w, rec, want, sh.m, sh.k, sh.n, scales, bias, relu)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("gemmInt8Rows(%dx%dx%d relu=%v) element %d: got %v want %v",
						sh.m, sh.k, sh.n, relu, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmInt8ExtremeValues drives every operand to the clamp rails,
// where the SWAR lane groups are at their 3·255² maximum, to prove no
// lane ever carries into its neighbour.
func TestGemmInt8ExtremeValues(t *testing.T) {
	m, k, cols := 5, 146, 3 // k%3 != 0 exercises the padded tail group
	vals := []int8{-127, 127}
	w := make([]int8, m*k)
	rec := make([]int8, cols*k)
	rng := rand.New(rand.NewSource(37))
	for i := range w {
		w[i] = vals[rng.Intn(2)]
	}
	for i := range rec {
		rec[i] = vals[rng.Intn(2)]
	}
	scales := make([]float32, m)
	for i := range scales {
		scales[i] = 1e-4
	}
	wp, wsum, rp, rsum, g := packOperands(w, rec, m, k, cols)
	got := make([]float32, m*cols)
	want := make([]float32, m*cols)
	gemmInt8Rows(wp, wsum, rp, rsum, got, m, g, cols, 0, cols, scales, nil, false)
	matmulInt8Ref(w, rec, want, m, k, cols, scales, nil, false)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("extreme-value element %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestGemmInt8StridedOutput checks the banded-conv write pattern: out
// rows spaced outStride apart with an outOff band offset, untouched
// sentinels elsewhere. m=6 also exercises the two-row remainder after
// the four-row block.
func TestGemmInt8StridedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m, k, cols, stride, off := 6, 9, 5, 17, 3
	w := randInt8Slice(rng, m*k)
	rec := randInt8Slice(rng, cols*k)
	scales := make([]float32, m)
	for i := range scales {
		scales[i] = 0.01
	}
	wp, wsum, rp, rsum, g := packOperands(w, rec, m, k, cols)
	got := make([]float32, m*stride)
	for i := range got {
		got[i] = 99 // sentinel outside the written columns
	}
	gemmInt8Rows(wp, wsum, rp, rsum, got, m, g, cols, off, stride, scales, nil, false)
	want := make([]float32, m*cols)
	matmulInt8Ref(w, rec, want, m, k, cols, scales, nil, false)
	for i := 0; i < m; i++ {
		for j := 0; j < cols; j++ {
			if got[i*stride+off+j] != want[i*cols+j] {
				t.Fatalf("strided row %d col %d: got %v want %v", i, j, got[i*stride+off+j], want[i*cols+j])
			}
		}
		for j := 0; j < off; j++ {
			if got[i*stride+j] != 99 {
				t.Fatalf("row %d wrote before its band offset", i)
			}
		}
		for j := off + cols; j < stride; j++ {
			if got[i*stride+j] != 99 {
				t.Fatalf("row %d wrote past its %d columns", i, cols)
			}
		}
	}
}

func TestQuantizeInt8Into(t *testing.T) {
	src := []float32{0, 1, -1, 0.4, 0.6, -0.4, -0.6, 200, -200, 126.4, 126.6}
	dst := make([]int8, len(src))
	QuantizeInt8Into(dst, src, 1)
	want := []int8{0, 1, -1, 0, 1, 0, -1, 127, -127, 126, 127}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("QuantizeInt8Into(%v): got %d want %d", src[i], dst[i], want[i])
		}
	}
}

// int8ConvCase builds a quantized conv problem: random int8 input and
// weights plus plausible per-channel scales and a float32 bias.
type int8ConvCase struct {
	xq           []int8
	wq           []int8
	scales, bias []float32
	spec         ConvSpec
	n, h, w      int
}

func makeInt8ConvCase(rng *rand.Rand, n, h, w int, spec ConvSpec) int8ConvCase {
	colRows := spec.InC * spec.K * spec.K
	scales := make([]float32, spec.OutC)
	for i := range scales {
		scales[i] = float32(rng.Float64()*0.001 + 1e-5)
	}
	return int8ConvCase{
		xq:     randInt8Slice(rng, n*spec.InC*h*w),
		wq:     randInt8Slice(rng, spec.OutC*colRows),
		scales: scales,
		bias:   randSlice(rng, spec.OutC),
		spec:   spec, n: n, h: h, w: w,
	}
}

// conv2DInt8Ref is a dependency-free reference convolution over the
// quantized operands, with the same requantInt8 epilogue.
func conv2DInt8Ref(cc int8ConvCase, relu bool) []float32 {
	spec := cc.spec
	oh, ow := spec.OutSize(cc.h, cc.w)
	out := make([]float32, cc.n*spec.OutC*oh*ow)
	for i := 0; i < cc.n; i++ {
		xi := cc.xq[i*spec.InC*cc.h*cc.w:]
		for oc := 0; oc < spec.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc int32
					for ic := 0; ic < spec.InC; ic++ {
						for ky := 0; ky < spec.K; ky++ {
							iy := oy*spec.Stride + ky - spec.Pad
							if iy < 0 || iy >= cc.h {
								continue
							}
							for kx := 0; kx < spec.K; kx++ {
								ix := ox*spec.Stride + kx - spec.Pad
								if ix < 0 || ix >= cc.w {
									continue
								}
								wv := cc.wq[oc*spec.InC*spec.K*spec.K+ic*spec.K*spec.K+ky*spec.K+kx]
								acc += int32(wv) * int32(xi[ic*cc.h*cc.w+iy*cc.w+ix])
							}
						}
					}
					out[((i*spec.OutC+oc)*oh+oy)*ow+ox] = requantInt8(acc, cc.scales[oc], cc.bias[oc], relu)
				}
			}
		}
	}
	return out
}

// TestConv2DInferInt8MatchesRef pins the banded/pooled conv path
// bitwise against the naive direct convolution, across geometries that
// exercise padding, stride, multi-band splits, and batches.
func TestConv2DInferInt8MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cases := []struct {
		n, h, w int
		spec    ConvSpec
	}{
		{1, 5, 7, ConvSpec{InC: 3, OutC: 4, K: 3, Stride: 1, Pad: 1}},
		{1, 9, 9, ConvSpec{InC: 2, OutC: 5, K: 3, Stride: 2, Pad: 1}},
		{2, 6, 6, ConvSpec{InC: 4, OutC: 3, K: 3, Stride: 1, Pad: 1}},
		{1, 8, 8, ConvSpec{InC: 1, OutC: 7, K: 5, Stride: 1, Pad: 2}},
		{1, 4, 4, ConvSpec{InC: 3, OutC: 4, K: 1, Stride: 1, Pad: 0}},
		// Wide enough that bandInt8Budget forces multiple bands.
		{1, 40, 1024, ConvSpec{InC: 8, OutC: 6, K: 3, Stride: 1, Pad: 1}},
	}
	for _, tc := range cases {
		cc := makeInt8ConvCase(rng, tc.n, tc.h, tc.w, tc.spec)
		for _, relu := range []bool{false, true} {
			want := conv2DInt8Ref(cc, relu)
			got := Conv2DInferInt8(cc.xq, cc.n, tc.spec.InC, tc.h, tc.w, cc.wq, cc.scales, cc.bias, tc.spec, relu, nil)
			for i := range want {
				if got.Data[i] != want[i] {
					t.Fatalf("Conv2DInferInt8(n=%d %dx%d spec=%+v relu=%v) element %d: got %v want %v",
						tc.n, tc.h, tc.w, tc.spec, relu, i, got.Data[i], want[i])
				}
			}
		}
	}
}

// TestConv2DInferInt8Deterministic pins bit-identical outputs across
// worker counts: the serial path, the banded parallel path, and a
// batch-parallel path must all agree exactly.
func TestConv2DInferInt8Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	spec := ConvSpec{InC: 8, OutC: 16, K: 3, Stride: 1, Pad: 1}
	cc := makeInt8ConvCase(rng, 2, 24, 600, spec)
	var serial, par2, par4 *Tensor
	withProcs(t, 1, func() {
		serial = Conv2DInferInt8(cc.xq, cc.n, spec.InC, cc.h, cc.w, cc.wq, cc.scales, cc.bias, spec, true, nil)
	})
	want := append([]float32(nil), serial.Data...)
	withProcs(t, 2, func() {
		par2 = Conv2DInferInt8(cc.xq, cc.n, spec.InC, cc.h, cc.w, cc.wq, cc.scales, cc.bias, spec, true, nil)
	})
	withProcs(t, 4, func() {
		par4 = Conv2DInferInt8(cc.xq, cc.n, spec.InC, cc.h, cc.w, cc.wq, cc.scales, cc.bias, spec, true, nil)
	})
	for i := range want {
		if par2.Data[i] != want[i] || par4.Data[i] != want[i] {
			t.Fatalf("element %d differs across worker counts: serial %v, 2 workers %v, 4 workers %v",
				i, want[i], par2.Data[i], par4.Data[i])
		}
	}
	// Single-batch inputs parallelize over bands rather than batch
	// elements; check that split too.
	one := makeInt8ConvCase(rng, 1, 40, 700, spec)
	var s1, p1 *Tensor
	withProcs(t, 1, func() {
		s1 = Conv2DInferInt8(one.xq, 1, spec.InC, one.h, one.w, one.wq, one.scales, one.bias, spec, false, nil)
	})
	w1 := append([]float32(nil), s1.Data...)
	withProcs(t, 4, func() {
		p1 = Conv2DInferInt8(one.xq, 1, spec.InC, one.h, one.w, one.wq, one.scales, one.bias, spec, false, nil)
	})
	for i := range w1 {
		if p1.Data[i] != w1[i] {
			t.Fatalf("band-parallel element %d differs: %v vs %v", i, w1[i], p1.Data[i])
		}
	}
}

// TestConv2DInferInt8SerialAllocFree pins the steady-state contract:
// with one worker and a warmed scratch arena, repeated calls reusing
// the output tensor perform zero heap allocations.
func TestConv2DInferInt8SerialAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	rng := rand.New(rand.NewSource(35))
	spec := ConvSpec{InC: 8, OutC: 8, K: 3, Stride: 1, Pad: 1}
	cc := makeInt8ConvCase(rng, 1, 16, 64, spec)
	withProcs(t, 1, func() {
		out := Conv2DInferInt8(cc.xq, 1, spec.InC, cc.h, cc.w, cc.wq, cc.scales, cc.bias, spec, true, nil)
		allocs := testing.AllocsPerRun(10, func() {
			out = Conv2DInferInt8(cc.xq, 1, spec.InC, cc.h, cc.w, cc.wq, cc.scales, cc.bias, spec, true, out)
		})
		if allocs != 0 {
			t.Errorf("serial Conv2DInferInt8 allocated %v times per call, want 0", allocs)
		}
	})
}

// TestConv2DInferInt8TracksFloat32 checks the requantization error
// budget: quantizing a float32 conv problem and running the int8 path
// must land within the analytic per-element bound of the float32
// Conv2DInfer result (k accumulated half-ULP rounding errors on each
// operand grid).
func TestConv2DInferInt8TracksFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	spec := ConvSpec{InC: 4, OutC: 6, K: 3, Stride: 1, Pad: 1}
	h, w := 12, 18
	x := New(1, spec.InC, h, w)
	copy(x.Data, randSlice(rng, x.Len()))
	wt := New(spec.OutC, spec.InC, spec.K, spec.K)
	copy(wt.Data, randSlice(rng, wt.Len()))
	bias := New(spec.OutC)
	copy(bias.Data, randSlice(rng, bias.Len()))

	want := Conv2DInfer(x, wt, bias, spec, false, nil)

	// Symmetric per-tensor activation / per-channel weight quantization,
	// the same scheme the nn layer applies.
	actMax := x.MaxAbs()
	xq := make([]int8, x.Len())
	QuantizeInt8Into(xq, x.Data, 127/actMax)
	colRows := spec.InC * spec.K * spec.K
	wq := make([]int8, spec.OutC*colRows)
	scales := make([]float32, spec.OutC)
	for oc := 0; oc < spec.OutC; oc++ {
		row := wt.Data[oc*colRows : (oc+1)*colRows]
		var wmax float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > wmax {
				wmax = v
			}
		}
		ws := wmax / 127
		QuantizeInt8Into(wq[oc*colRows:(oc+1)*colRows], row, 127/wmax)
		scales[oc] = ws * (actMax / 127)
	}
	got := Conv2DInferInt8(xq, 1, spec.InC, h, w, wq, scales, bias.Data, spec, false, nil)

	// Each of the ≤ colRows products carries at most a half-step error
	// from each operand: |err| ≤ k·(act_step·|w| + w_step·|act| +
	// act_step·w_step/4) ≤ k·(act_step·wmax + w_step·actMax).
	for i := range want.Data {
		bound := 0.0
		for oc := 0; oc < spec.OutC; oc++ {
			step := float64(scales[oc]) * 127 // one quantization step in output units
			if b := float64(colRows) * step; b > bound {
				bound = b
			}
		}
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > bound {
			t.Fatalf("element %d: int8 %v vs float32 %v differs by %g (bound %g)",
				i, got.Data[i], want.Data[i], d, bound)
		}
	}
}

// TestInt8MapInPlaceBands checks the in-place ReLU convolution's band
// hand-off: on one to five workers — bands of one row and of many — the
// map it leaves is the direct convolution, ReLU and QuantizeInt8Into.
func TestInt8MapInPlaceBands(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	spec := ConvSpec{InC: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}
	const w, inv, inv2 = 37, 40, 2
	for _, h := range []int{1, 2, 3, 5, 23} {
		img := randSlice(rng, spec.InC*h*w)
		cc := makeInt8ConvCase(rng, 1, h, w, spec)
		QuantizeInt8Into(cc.xq, img, inv)
		want := make([]int8, len(img))
		QuantizeInt8Into(want, conv2DInt8Ref(cc, true), inv2)
		for procs := 1; procs <= 5; procs++ {
			var m Int8Map
			m.Quantize(img, spec.InC, h, w, 1, inv)
			withProcs(t, procs, func() { Conv2DInt8MapReLU(&m, cc.wq, cc.scales, cc.bias, spec, inv2) })
			checkMap(t, fmt.Sprintf("%d rows on %d workers", h, procs), &m, want)
		}
	}
}
