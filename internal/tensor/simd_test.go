package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the kernel lanes: the assembly (AVX2, and for
// int8 the AVX-512 VNNI lane ahead of it), the portable Go kernels they
// sit beside, and the naive *Ref kernels. All must agree bit for bit on
// every shape — in particular the ones that are not multiples of a tile
// — and on every value, finite or not. A lane this host (or build)
// lacks is skipped; the portable lane runs everywhere.

// kernelLane is one set of kernels the entry points can run on.
type kernelLane struct {
	name       string
	avx2, vnni bool
}

// kernelLanes are the lanes, fastest first: CPUID selects the first one
// the host has.
var kernelLanes = []kernelLane{{"vnni", true, true}, {"avx2", true, false}, {"portable", false, false}}

// hostAVX2 and hostVNNI are the CPUID decision, taken before any test
// switches lanes.
var hostAVX2, hostVNNI = useAVX2, useVNNI

func (l kernelLane) available() bool { return (hostAVX2 || !l.avx2) && (hostVNNI || !l.vnni) }

// withLane runs fn on lane l, restoring the CPUID decision afterwards.
func withLane(l kernelLane, fn func()) {
	prevAVX2, prevVNNI := useAVX2, useVNNI
	useAVX2, useVNNI = l.avx2, l.vnni
	defer func() { useAVX2, useVNNI = prevAVX2, prevVNNI }()
	fn()
}

// withPortableKernels runs fn with the assembly switched off.
func withPortableKernels(t testing.TB, fn func()) {
	t.Helper()
	withLane(kernelLanes[2], fn)
}

// int8Tests are the int8 parity, determinism and allocation tests the
// lane tests re-run.
var int8Tests = []struct {
	name string
	fn   func(*testing.T)
}{
	{"QuantizeInt8Into", TestQuantizeInt8Into},
	{"Conv2DInferInt8MatchesRef", TestConv2DInferInt8MatchesRef},
	{"Conv2DInferInt8Deterministic", TestConv2DInferInt8Deterministic},
	{"Conv2DInferInt8SerialAllocFree", TestConv2DInferInt8SerialAllocFree},
	{"Conv2DInferInt8TracksFloat32", TestConv2DInferInt8TracksFloat32},
	{"Int8MapInPlaceBands", TestInt8MapInPlaceBands},
}

// TestPortablePath re-runs the package's parity, determinism and
// allocation tests with the assembly switched off, so the fallback an
// AVX2 host never takes is tested on every host.
func TestPortablePath(t *testing.T) {
	if !hostAVX2 {
		t.Skip("the portable kernels are already the only path here")
	}
	withPortableKernels(t, func() {
		for _, tc := range []struct {
			name string
			fn   func(*testing.T)
		}{
			{"GEMMParity", TestGEMMParity},
			{"GEMMFusedBiasReLUParity", TestGEMMFusedBiasReLUParity},
			{"GEMMStridedOutput", TestGEMMStridedOutput},
			{"GEMMTAParity", TestGEMMTAParity},
			{"GEMMBTParity", TestGEMMBTParity},
			{"MatMulATandBT", TestMatMulATandBT},
			{"MatMulDeterministicAcrossWorkerCounts", TestMatMulDeterministicAcrossWorkerCounts},
			{"ConvMatchesReference", TestConvMatchesReference},
			{"Im2colCol2imAdjoint", TestIm2colCol2imAdjoint},
			{"Conv2DInferMatchesForward", TestConv2DInferMatchesForward},
			{"Conv2DInferMultiBand", TestConv2DInferMultiBand},
		} {
			t.Run(tc.name, tc.fn)
		}
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

// TestCPULanes pins the lane decision on CPUID words: a lane needs its
// instructions and the OS saving the registers it touches — VNNI without
// the opmask and ZMM state, or without AVX-512 BW or VL, must select no
// VNNI lane, since running it would be SIGILL.
func TestCPULanes(t *testing.T) {
	const (
		osxsaveAVX = 1<<27 | 1<<28
		avx2       = 1 << 5
		f, bw, vl  = 1 << 16, 1 << 30, 1 << 31
		vnni       = 1 << 11
		all        = avx2 | f | bw | vl
	)
	for _, tc := range []struct {
		name                            string
		maxLeaf, ecx1, ebx7, ecx7, xcr0 uint32
		avx2, vnni                      bool
	}{
		{"avx512 vnni, full state", 7, osxsaveAVX, all, vnni, 0xE7, true, true},
		{"vnni without opmask/ZMM state", 7, osxsaveAVX, all, vnni, 0x07, true, false},
		{"vnni without Hi16_ZMM state", 7, osxsaveAVX, all, vnni, 0x67, true, false},
		{"vnni without BW", 7, osxsaveAVX, avx2 | f | vl, vnni, 0xE7, true, false},
		{"vnni without VL", 7, osxsaveAVX, avx2 | f | bw, vnni, 0xE7, true, false},
		{"avx512 without vnni", 7, osxsaveAVX, all, 0, 0xE7, true, false},
		{"avx2 only", 7, osxsaveAVX, avx2, 0, 0x07, true, false},
		{"avx2 without YMM state", 7, osxsaveAVX, all, vnni, 0x03, false, false},
		{"no OSXSAVE", 7, 1 << 28, all, vnni, 0, false, false},
		{"no AVX", 7, 1 << 27, all, vnni, 0xE7, false, false},
		{"no leaf 7", 6, osxsaveAVX, all, vnni, 0xE7, false, false},
		{"no AVX2", 7, osxsaveAVX, f | bw | vl, vnni, 0xE7, false, false},
	} {
		if a, v := cpuLanes(tc.maxLeaf, tc.ecx1, tc.ebx7, tc.ecx7, tc.xcr0); a != tc.avx2 || v != tc.vnni {
			t.Errorf("%s: cpuLanes = avx2 %v, vnni %v; want %v, %v", tc.name, a, v, tc.avx2, tc.vnni)
		}
	}
}

// sameBits reports bit equality, except that any NaN equals any NaN:
// when two NaNs meet in an x86 multiply or add the first source
// operand's payload survives, and which operand comes first is the Go
// compiler's register allocation — gemmBTRows' own block and remainder
// loops already differ in it.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func diffBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39,
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// operand returns n values from rng: unit normals, and with special set
// about one in six replaced by ±0, NaN, ±Inf, denormals or ±MaxFloat32.
func operand(rng *rand.Rand, n int, special bool) []float32 {
	s := randSlice(rng, n)
	if special {
		for i := range s {
			if rng.Intn(6) == 0 {
				s[i] = specialFloats[rng.Intn(len(specialFloats))]
			}
		}
	}
	return s
}

// gemmCase is one randomly drawn GEMM problem; the same case runs under
// the table test and the fuzz target.
type gemmCase struct {
	m, k, n     int
	strideExtra int // out row stride beyond n
	lo          int // first output row of the partial-range check
	bias, relu  bool
	special     bool
	procs       int
	dataSeed    int64
}

func drawGemmCase(seed int64, m, k, n, flags uint8) gemmCase {
	c := gemmCase{
		m: 1 + int(m)%19, k: 1 + int(k)%150, n: 1 + int(n)%70,
		strideExtra: int(flags>>4) % 5,
		bias:        flags&1 != 0, relu: flags&2 != 0, special: flags&4 != 0,
		procs:    1 + int(flags>>6)%3,
		dataSeed: seed,
	}
	c.lo = int(uint64(seed)>>8) % c.m
	return c
}

// epilogueRef applies gemmRowsGo's bias/ReLU pass, expression for
// expression, to a finished reference product.
func epilogueRef(out []float32, m, n int, bias []float32, relu bool) {
	if bias == nil && !relu {
		return
	}
	for i := 0; i < m; i++ {
		var bv float32
		if bias != nil {
			bv = bias[i]
		}
		for j := 0; j < n; j++ {
			v := out[i*n+j]
			v += bv
			if relu && v < 0 {
				v = 0
			}
			out[i*n+j] = v
		}
	}
}

func checkGemmCase(t *testing.T, c gemmCase) {
	rng := rand.New(rand.NewSource(c.dataSeed))
	m, k, n := c.m, c.k, c.n
	var bias []float32
	if c.bias {
		bias = operand(rng, m, c.special)
	}

	// out = a·b with the fused epilogue, into a strided output.
	{
		a, b := operand(rng, m*k, c.special), operand(rng, k*n, c.special)
		want := make([]float32, m*n)
		matmulRef(a, b, want, m, k, n)
		epilogueRef(want, m, n, bias, c.relu)
		stride := n + c.strideExtra
		run := func(lo int) []float32 {
			out := make([]float32, m*stride)
			for i := range out {
				out[i] = 99
			}
			gemmRows(a, b, out, lo, m, k, n, stride, bias, c.relu)
			for i := 0; i < m; i++ {
				for j := 0; j < stride; j++ {
					if (i < lo || j >= n) && out[i*stride+j] != 99 {
						t.Fatalf("gemmRows wrote outside rows [%d,%d) × %d columns at (%d,%d)", lo, m, n, i, j)
					}
				}
			}
			dense := make([]float32, 0, m*n)
			for i := lo; i < m; i++ {
				dense = append(dense, out[i*stride:i*stride+n]...)
			}
			return dense
		}
		var portable, portableTail []float32
		withPortableKernels(t, func() { portable, portableTail = run(0), run(c.lo) })
		diffBits(t, "gemmRows portable vs matmulRef", portable, want)
		diffBits(t, "gemmRows vs matmulRef", run(0), want)
		diffBits(t, "gemmRows portable, partial rows", portableTail, want[c.lo*n:])
		diffBits(t, "gemmRows, partial rows", run(c.lo), want[c.lo*n:])
		if !c.bias && !c.relu {
			got := make([]float32, m*n)
			withProcs(t, c.procs, func() { matmul(a, b, got, m, k, n) })
			diffBits(t, "matmul across workers", got, want)
		}
	}

	// out = aᵀ·b.
	{
		a, b := operand(rng, m*k, c.special), operand(rng, m*n, c.special)
		want := make([]float32, k*n)
		matmulTARef(a, b, want, m, k, n)
		got, portable := make([]float32, k*n), make([]float32, k*n)
		withPortableKernels(t, func() { gemmTARows(a, b, portable, 0, k, m, k, n) })
		diffBits(t, "gemmTARows portable vs matmulTARef", portable, want)
		gemmTARows(a, b, got, 0, k, m, k, n)
		diffBits(t, "gemmTARows vs matmulTARef", got, want)
		clear(got)
		withProcs(t, c.procs, func() { matmulTA(a, b, got, m, k, n) })
		diffBits(t, "matmulTA across workers", got, want)
	}

	// out = a·bᵀ.
	{
		a, b := operand(rng, m*n, c.special), operand(rng, k*n, c.special)
		want := make([]float32, m*k)
		matmulBTRef(a, b, want, m, n, k)
		got, portable := make([]float32, m*k), make([]float32, m*k)
		withPortableKernels(t, func() { matmulBT(a, b, portable, m, n, k) })
		diffBits(t, "matmulBT portable vs matmulBTRef", portable, want)
		withProcs(t, c.procs, func() { matmulBT(a, b, got, m, n, k) })
		diffBits(t, "matmulBT vs matmulBTRef", got, want)
		if useAVX2 {
			clear(got)
			matmulBTTiles(a, b, got, m, n, k) // also below btMinRows
			diffBits(t, "matmulBTTiles vs matmulBTRef", got, want)
		}
	}
}

// TestKernelsDifferentialGEMM draws shapes that are not tile multiples
// (m 1–19, k 1–150, n 1–70, strided output, optional bias and ReLU,
// one to three workers), with and without special values.
func TestKernelsDifferentialGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 300; i++ {
		checkGemmCase(t, drawGemmCase(rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))))
	}
}

func FuzzGemmKernels(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(8), uint8(15), uint8(0x07))    // 4 rows, one masked block, bias+relu+specials
	f.Add(int64(2), uint8(18), uint8(143), uint8(16), uint8(0x42)) // 19 rows, k=144, 17 columns
	f.Add(int64(3), uint8(0), uint8(0), uint8(0), uint8(0x06))     // 1×1×1
	f.Add(int64(4), uint8(2), uint8(26), uint8(47), uint8(0x95))   // the 3-row tail conv shape
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, flags uint8) {
		checkGemmCase(t, drawGemmCase(seed, m, k, n, flags))
	})
}

// convCase is one randomly drawn convolution problem.
type convCase struct {
	batch, h, w int
	spec        ConvSpec
	relu        bool
	special     bool
	procs       int
	dataSeed    int64
}

func drawConvCase(seed int64, shape, chans, flags uint8) convCase {
	inCs := []int{1, 2, 3, 5, 16, 17}
	outCs := []int{1, 3, 4, 7, 16, 17, 64}
	c := convCase{
		batch: 1 + int(flags>>6)%2,
		spec: ConvSpec{
			InC: inCs[int(chans&15)%len(inCs)], OutC: outCs[int(chans>>4)%len(outCs)],
			K: 3, Stride: 1 + int(flags>>2)&1, Pad: int(flags>>3) & 1,
		},
		relu: flags&1 != 0, special: flags&2 != 0,
		procs:    1 + int(flags>>4)%3,
		dataSeed: seed,
	}
	if flags&0x20 != 0 && c.spec.Pad == 0 {
		c.spec.K = 1
	}
	c.h = c.spec.K + int(shape&15)
	c.w = c.spec.K + int(shape>>4)*3
	return c
}

func checkConvCase(t *testing.T, c convCase) {
	rng := rand.New(rand.NewSource(c.dataSeed))
	spec := c.spec
	x := New(c.batch, spec.InC, c.h, c.w)
	copy(x.Data, operand(rng, x.Len(), c.special))
	wt := New(spec.OutC, spec.InC, spec.K, spec.K)
	copy(wt.Data, operand(rng, wt.Len(), c.special))
	var bias *Tensor
	if rng.Intn(4) != 0 {
		bias = New(spec.OutC)
		copy(bias.Data, operand(rng, spec.OutC, c.special))
	}
	oh, ow := spec.OutSize(c.h, c.w)

	// Float32: Conv2DInfer against Conv2DForward plus separate bias and
	// ReLU passes, then the backward pass, each on both paths.
	type f32Result struct{ infer, fwd, gx, gw, gb []float32 }
	run := func() f32Result {
		var r f32Result
		withProcs(t, c.procs, func() {
			r.infer = Conv2DInfer(x, wt, bias, spec, c.relu, nil).Data
			out, cols := Conv2DForward(x, wt, bias, spec)
			gy := New(c.batch, spec.OutC, oh, ow)
			copy(gy.Data, operand(rand.New(rand.NewSource(c.dataSeed+1)), gy.Len(), c.special))
			gw, gb := New(wt.Shape...), New(spec.OutC)
			r.gx = Conv2DBackward(gy, cols, x.Shape, wt, gw, gb, spec).Data
			r.fwd, r.gw, r.gb = out.Data, gw.Data, gb.Data
		})
		return r
	}
	got := run()
	var portable f32Result
	withPortableKernels(t, func() { portable = run() })
	want := referenceConv(x, wt, bias, spec).Data
	if !c.special {
		// referenceConv accumulates in float64 and in another order, so
		// it bounds the result rather than pinning its bits.
		if d := maxRelDiff(portable.fwd, want); d > 1e-4 {
			t.Fatalf("portable Conv2DForward %+v differs from the direct convolution by %g", c, d)
		}
	}
	diffBits(t, "Conv2DForward asm vs portable", got.fwd, portable.fwd)
	diffBits(t, "Conv2DBackward gx asm vs portable", got.gx, portable.gx)
	diffBits(t, "Conv2DBackward gw asm vs portable", got.gw, portable.gw)
	diffBits(t, "Conv2DBackward gb asm vs portable", got.gb, portable.gb)
	fused := append([]float32(nil), portable.fwd...)
	if c.relu {
		for i, v := range fused {
			// A nil bias under ReLU still adds zero, like gemmRowsGo.
			if bias == nil {
				v += 0
			}
			if v < 0 {
				v = 0
			}
			fused[i] = v
		}
	}
	diffBits(t, "Conv2DInfer portable vs Conv2DForward+ReLU", portable.infer, fused)
	diffBits(t, "Conv2DInfer asm vs Conv2DForward+ReLU", got.infer, fused)

	// The activation quantizer in front of the int8 path, at scales that
	// round, saturate and overflow.
	for _, inv := range []float32{40, 1e-3, 1e30, 0} {
		q, pq := make([]int8, x.Len()), make([]int8, x.Len())
		QuantizeInt8Into(q, x.Data, inv)
		withPortableKernels(t, func() { QuantizeInt8Into(pq, x.Data, inv) })
		for i := range pq {
			if q[i] != pq[i] {
				t.Fatalf("QuantizeInt8Into(%v × %v) = %d, portable %d", x.Data[i], inv, q[i], pq[i])
			}
		}
	}

	// Int8: Conv2DInferInt8 on every lane against the direct int8
	// convolution. Rows of ±127 (and −128) make every int16 pair sum a
	// bare VPMADDUBSW would saturate.
	cc := makeInt8ConvCase(rng, c.batch, c.h, c.w, spec)
	if c.special {
		extremeInt8Case(rng, &cc)
	}
	kernelBias := cc.bias
	if bias == nil {
		kernelBias = nil
		clear(cc.bias) // what the reference adds for a nil bias
	}
	want8 := conv2DInt8Ref(cc, c.relu)
	for _, l := range kernelLanes {
		if !l.available() {
			continue
		}
		var got []float32
		withLane(l, func() {
			withProcs(t, c.procs, func() {
				got = Conv2DInferInt8(cc.xq, c.batch, spec.InC, c.h, c.w, cc.wq, cc.scales, kernelBias, spec, c.relu, nil).Data
			})
		})
		diffBits(t, "Conv2DInferInt8 "+l.name+" lane vs direct int8 convolution", got, want8)
	}
	checkMapCase(t, c, rng, x.Data[:spec.InC*c.h*c.w])
}

// extremeInt8Case drives a case's operands to the int8 rails and its
// scales and biases to special values.
func extremeInt8Case(rng *rand.Rand, cc *int8ConvCase) {
	ext := []int8{127, -127, -128}
	for i := range cc.xq {
		cc.xq[i] = ext[rng.Intn(2+i%2)]
	}
	for i := range cc.wq {
		cc.wq[i] = ext[rng.Intn(3)]
	}
	copy(cc.scales, operand(rng, len(cc.scales), true))
	copy(cc.bias, operand(rng, len(cc.bias), true))
}

// checkMapCase pins the activation map's two producers on every lane:
// Quantize against QuantizeInt8Into laid out by hand, and the in-place
// ReLU convolution of a residual block (InC → InC, 3×3, pad 1) against
// the direct convolution, ReLU and QuantizeInt8Into — and then reads the
// shifted map back through one more convolution.
func checkMapCase(t *testing.T, c convCase, rng *rand.Rand, img []float32) {
	ch, h, w := c.spec.InC, c.h, c.w
	invs := []float32{40, 1e-3, 1e30, 0}
	inv, inv2 := invs[rng.Intn(len(invs))], invs[rng.Intn(len(invs))]
	q := make([]int8, len(img))
	QuantizeInt8Into(q, img, inv)
	sq := ConvSpec{InC: ch, OutC: ch, K: 3, Stride: 1, Pad: 1}
	cc := makeInt8ConvCase(rng, 1, h, w, sq)
	if c.special {
		extremeInt8Case(rng, &cc)
	}
	cc.xq = q
	mid := make([]int8, len(img))
	QuantizeInt8Into(mid, conv2DInt8Ref(cc, true), inv2)
	next := cc
	next.xq = mid
	wantNext := conv2DInt8Ref(next, false)
	for _, l := range kernelLanes {
		if !l.available() {
			continue
		}
		withLane(l, func() {
			var m Int8Map
			m.Quantize(img, ch, h, w, 1, inv)
			checkMap(t, l.name+" lane Int8Map.Quantize", &m, q)
			withProcs(t, c.procs, func() { Conv2DInt8MapReLU(&m, cc.wq, cc.scales, cc.bias, sq, inv2) })
			checkMap(t, l.name+" lane Conv2DInt8MapReLU", &m, mid)
			got := make([]float32, len(wantNext))
			withProcs(t, c.procs, func() { Conv2DInt8Map(&m, cc.wq, cc.scales, cc.bias, sq, false, got) })
			diffBits(t, l.name+" lane Conv2DInt8Map over a shifted map", got, wantNext)
		})
	}
}

// checkMap compares every byte of m a kernel may read — the ring, the
// padding channels and the pixels — with the planar int8 image want.
func checkMap(t *testing.T, what string, m *Int8Map, want []int8) {
	t.Helper()
	rb := m.rowBytes()
	for r := 0; r < m.h+2*m.pad; r++ {
		y := r - m.pad
		for i, b := range m.buf[(m.top+r)*rb : (m.top+r+1)*rb] {
			x, ch := i/m.c4-m.pad, i%m.c4
			exp := byte(0x80)
			if y >= 0 && y < m.h && x >= 0 && x < m.w && ch < m.c {
				exp = byte(want[(ch*m.h+y)*m.w+x]) ^ 0x80
			}
			if b != exp {
				t.Fatalf("%s: %dx%dx%d map byte (y %d, x %d, ch %d) = %#02x, want %#02x", what, m.c, m.h, m.w, y, x, ch, b, exp)
			}
		}
	}
}

// TestKernelsDifferentialConv draws convolution geometries — pad 0/1,
// stride 1/2, the 3-channel head and 3-row tail shapes, the 64-output
// upsampling shape, channel counts off the 4-byte group and the 16-byte
// chunk — on one to three workers.
func TestKernelsDifferentialConv(t *testing.T) {
	if !hostVNNI {
		t.Log("vnni lane skipped: this host or build has no AVX-512 VNNI")
	}
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 200; i++ {
		checkConvCase(t, drawConvCase(rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))))
	}
}

func FuzzConvKernels(f *testing.F) {
	f.Add(int64(1), uint8(0x35), uint8(0x42), uint8(0x09)) // 16→16, pad 1, ReLU
	f.Add(int64(2), uint8(0x7a), uint8(0x14), uint8(0x0b)) // 16→3 tail, specials
	f.Add(int64(3), uint8(0x11), uint8(0x32), uint8(0x1c)) // 3→7 head, stride 2
	f.Add(int64(4), uint8(0x00), uint8(0x05), uint8(0x62)) // 17 channels, K=1
	f.Add(int64(5), uint8(0x63), uint8(0x65), uint8(0x2b)) // 17→64, odd width, specials, 3 workers
	f.Add(int64(6), uint8(0x26), uint8(0x52), uint8(0x0b)) // 3→17, specials
	f.Add(int64(7), uint8(0x94), uint8(0x33), uint8(0x2d)) // 5→7, stride 2 (the VNNI lane's fallback), 3 workers
	f.Fuzz(func(t *testing.T, seed int64, shape, chans, flags uint8) {
		checkConvCase(t, drawConvCase(seed, shape, chans, flags))
	})
}
