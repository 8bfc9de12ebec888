package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the kernel lanes: the assembly (AVX2, and for
// int8 the AVX-512 VNNI and AMX lanes ahead of it), the portable Go
// kernels they sit beside, and the naive *Ref kernels. All must agree bit for bit on
// every shape — in particular the ones that are not multiples of a tile
// — and on every value, finite or not. A lane this host (or build)
// lacks is skipped; the portable lane runs everywhere.

// kernelLane is one set of kernels the entry points can run on.
type kernelLane struct {
	name              string
	avx2, avx512, amx bool
}

// kernelLanes are the lanes, fastest first: CPUID selects the first one
// the host has.
var kernelLanes = []kernelLane{
	{"amx", true, true, true}, {"avx512", true, true, false}, {"avx2", true, false, false}, {"portable", false, false, false},
}

// hostAVX2, hostAVX512 and hostAMX are the CPUID decision, taken before
// any test switches lanes.
var hostAVX2, hostAVX512, hostAMX = useAVX2, useAVX512, useAMX

func (l kernelLane) available() bool {
	return (hostAVX2 || !l.avx2) && (hostAVX512 || !l.avx512) && (hostAMX || !l.amx)
}

// withLane runs fn on lane l, restoring the CPUID decision afterwards.
func withLane(l kernelLane, fn func()) {
	prevAVX2, prevAVX512, prevAMX := useAVX2, useAVX512, useAMX
	useAVX2, useAVX512, useAMX = l.avx2, l.avx512, l.amx
	defer func() { useAVX2, useAVX512, useAMX = prevAVX2, prevAVX512, prevAMX }()
	fn()
}

// withPortableKernels runs fn with the assembly switched off.
func withPortableKernels(t testing.TB, fn func()) {
	t.Helper()
	withLane(kernelLanes[3], fn)
}

// float32ConvTests are the float32 convolution tests the lane tests
// re-run: on a host with the AVX-512 lane they are the only tests of
// the AVX2 and portable implicit-GEMM drivers.
var float32ConvTests = []struct {
	name string
	fn   func(*testing.T)
}{
	{"ConvMatchesReference", TestConvMatchesReference},
	{"Conv2DInferMatchesForward", TestConv2DInferMatchesForward},
	{"Conv2DInferReusesBuffer", TestConv2DInferReusesBuffer},
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
	{"Int8MapRowToMap", TestInt8MapRowToMap},
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
			{"Im2colCol2imAdjoint", TestIm2colCol2imAdjoint},
		} {
			t.Run(tc.name, tc.fn)
		}
		for _, tc := range float32ConvTests {
			t.Run(tc.name, tc.fn)
		}
		for _, tc := range int8Tests {
			t.Run(tc.name, tc.fn)
		}
	})
}

// TestAVX2Path is TestPortablePath's twin for the AVX2 lane, which an
// AVX-512 host otherwise takes only for the GEMMs.
func TestAVX2Path(t *testing.T) {
	if !hostAVX512 {
		t.Skip("no AVX-512 lane here: the AVX2 lane, if any, is already the default")
	}
	withLane(kernelLanes[2], func() {
		for _, tc := range float32ConvTests {
			t.Run(tc.name, tc.fn)
		}
		for _, tc := range int8Tests {
			t.Run(tc.name, tc.fn)
		}
	})
}

// TestVNNIPath re-runs the int8 tests on the VNNI lane, which an AMX
// host otherwise takes only for a kernel wider than sixteen.
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
		avx2, avx512                    bool
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
		if a, v := cpuLanes(tc.maxLeaf, tc.ecx1, tc.ebx7, tc.ecx7, tc.xcr0); a != tc.avx2 || v != tc.avx512 {
			t.Errorf("%s: cpuLanes = avx2 %v, avx512 %v; want %v, %v", tc.name, a, v, tc.avx2, tc.avx512)
		}
	}
}

// TestAMXLane pins the AMX decision on CPUID.(7,0):EDX, XCR0 and the
// permission request's answer: any missing bit, a refused request or no
// AVX-512 lane means no AMX. Then, on a host with the AVX-512 lane, it
// forces a refused request and runs the convolution it leaves to the
// VNNI lane against the portable lane.
func TestAMXLane(t *testing.T) {
	const (
		tile, int8Bit = 1 << 24, 1 << 25
		cfgState, dat = 1 << 17, 1 << 18
		edx, xcr0     = tile | int8Bit | 1<<22, 0x600E7 // with AMX-BF16; x87/SSE/AVX/ZMM state too
	)
	for _, tc := range []struct {
		name      string
		avx512    bool
		edx7, xcr uint32
		perm      error
		amx       bool
	}{
		{"granted", true, edx, xcr0, nil, true},
		{"no AMX-TILE", true, edx &^ tile, xcr0, nil, false},
		{"no AMX-INT8", true, edx &^ int8Bit, xcr0, nil, false},
		{"no XTILECFG state", true, edx, xcr0 &^ cfgState, nil, false},
		{"no XTILEDATA state", true, edx, xcr0 &^ dat, nil, false},
		{"request refused (EPERM)", true, edx, xcr0, errors.New("operation not permitted"), false},
		{"request unknown (EINVAL)", true, edx, xcr0, errors.New("invalid argument"), false},
		{"no AVX-512 lane", false, edx, xcr0, nil, false},
	} {
		if amx := amxLane(tc.avx512, tc.edx7, tc.xcr, tc.perm); amx != tc.amx {
			t.Errorf("%s: amxLane = %v, want %v", tc.name, amx, tc.amx)
		}
	}
	if !hostAVX512 {
		return
	}
	refused := amxLane(true, edx, xcr0, errors.New("operation not permitted"))
	withLane(kernelLane{"refused amx", true, true, refused}, func() {
		spec := ConvSpec{InC: 16, OutC: 16, K: 3, Stride: 1, Pad: 1}
		if l := int8Lane(spec); l != laneVNNI {
			t.Fatalf("with the AMX request refused, int8Lane = %d, want the VNNI lane", l)
		}
		cc := makeInt8ConvCase(rand.New(rand.NewSource(5)), 1, 5, 37, spec)
		got := Conv2DInferInt8(cc.xq, 1, 16, 5, 37, cc.wq, cc.scales, cc.bias, spec, true, nil).Data
		var want []float32
		withPortableKernels(t, func() {
			want = Conv2DInferInt8(cc.xq, 1, 16, 5, 37, cc.wq, cc.scales, cc.bias, spec, true, nil).Data
		})
		diffBits(t, "VNNI fallback vs portable", got, want)
	})
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
			gemmRows(a, b, out, lo, m, k, n, stride, epilogue{bias: bias, relu: c.relu})
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

	residual bool    // also check the row kernels' residual epilogue (checkResidualRows)
	scale    float32 // its scale: 1 or 0.1
	inPlace  bool    // with out == res
}

// convWidths are the input widths the extra byte can force: a single
// column, either side of the AVX-512 tile's 32 pixels, a 480-pixel row
// of full tiles, and either side of the AMX lane's 16-pixel tile.
var convWidths = []int{1, 31, 33, 480, 15, 17}

func drawConvCase(seed int64, shape, chans, flags, extra uint8) convCase {
	inCs := []int{1, 2, 3, 5, 16, 17, 64}
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
		residual: extra&1 != 0, scale: 1, inPlace: extra&4 != 0,
	}
	if extra&2 != 0 {
		c.scale = 0.1
	}
	if flags&0x20 != 0 && c.spec.Pad == 0 {
		c.spec.K = 1
	}
	c.h = c.spec.K + int(shape&15)
	c.w = c.spec.K + int(shape>>4)*3
	if i := int(extra>>3) & 7; i >= 1 && i <= len(convWidths) {
		c.w = max(convWidths[i-1], c.spec.K-2*c.spec.Pad)
	}
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
	oh, ow := spec.outSize(c.h, c.w)

	// Float32: Conv2DForward and the backward pass on the assembly and
	// the portable kernels, then, for the geometry it takes (stride 1,
	// pad (K−1)/2), Conv2DInfer on every lane against Conv2DForward plus
	// separate bias and ReLU passes.
	type f32Result struct{ fwd, gx, gw, gb []float32 }
	run := func() f32Result {
		var r f32Result
		withProcs(t, c.procs, func() {
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
	rows := spec.Stride == 1 && spec.K == 2*spec.Pad+1
	for _, l := range kernelLanes {
		if !rows || !l.available() {
			continue
		}
		var infer []float32
		withLane(l, func() {
			withProcs(t, c.procs, func() { infer = Conv2DInfer(x, wt, bias, spec, c.relu, nil).Data })
		})
		diffBits(t, "Conv2DInfer "+l.name+" lane vs Conv2DForward+ReLU", infer, fused)
	}

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
	// convolution, for the geometry it takes (stride 1, pad (K−1)/2).
	// Rows of ±127 (and −128) make every int16 pair sum a bare
	// VPMADDUBSW would saturate.
	cc := makeInt8ConvCase(rng, c.batch, c.h, c.w, spec)
	if c.special {
		extremeInt8Case(rng, &cc)
	}
	kernelBias := cc.bias
	if bias == nil {
		kernelBias = nil
		clear(cc.bias) // what the reference adds for a nil bias
	}
	if rows {
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
		if c.residual {
			checkResidualRows(t, c, x, wt, bias, fused, cc, kernelBias, want8)
		}
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

// checkMapCase pins the activation map's producers on every lane: the
// ReLU convolution of a residual block (InC → InC, 3×3, pad 1) run as a
// row pipeline over 3-slot rings — every window but the first sits on
// wrapped slots — its input rows quantized into the first ring
// (QuantizeRow) against QuantizeInt8Into laid out by hand, its rows
// quantized into the next ring (RowToMap) against the direct
// convolution, ReLU and QuantizeInt8Into, and read back through one more
// convolution (Row).
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
			got := int8RowPipeline(t, l.name, img, h, w, cc, inv, inv2, q, mid)
			diffBits(t, l.name+" lane Int8ConvRows.Row over a ring", got, wantNext)
		})
	}
}

// int8RowPipeline runs conv(relu(conv(x))) of cc's geometry (InC →
// InC, 3×3, pad 1) over the image img row by row through two 3-slot
// rings: input row t quantized with inv at step t, the ReLU
// convolution's row t−1 quantized with inv2 into the second ring, the
// plain convolution's row t−2 into the returned planar output. Each
// ring row is checked against q or mid as it is written.
func int8RowPipeline(t *testing.T, lane string, img []float32, h, w int, cc int8ConvCase, inv, inv2 float32, q, mid []int8) []float32 {
	t.Helper()
	spec := cc.spec
	k1 := NewInt8ConvRows(cc.wq, cc.scales, cc.bias, spec, w, true)
	k2 := NewInt8ConvRows(cc.wq, cc.scales, cc.bias, spec, w, false)
	defer k1.Release()
	defer k2.Release()
	var in, mm Int8Map
	in.Reset(spec.InC, w, 1, 3)
	mm.Reset(spec.InC, w, 1, 3)
	in.ZeroRow(-1)
	mm.ZeroRow(-1)
	out := make([]float32, spec.OutC*h*w)
	for step := 0; step <= h+1; step++ {
		if step < h {
			in.QuantizeRow(step, img[step*w:], h*w, inv)
			checkMapRow(t, lane+" lane Int8Map.QuantizeRow", &in, step, h, q)
		} else if step == h {
			in.ZeroRow(h)
		}
		if y := step - 1; y >= 0 && y < h {
			k1.RowToMap(&in, y, &mm, inv2)
			checkMapRow(t, lane+" lane Int8ConvRows.RowToMap", &mm, y, h, mid)
		} else if y == h {
			mm.ZeroRow(h)
		}
		if y := step - 2; y >= 0 && y < h {
			k2.Row(&mm, y, out[y*w:], h*w, nil, 0)
		}
	}
	return out
}

// checkMapRow compares row y's slot of m, and its mirror if it has one,
// with row y of the planar int8 image want of h rows (int8 zero outside
// it).
func checkMapRow(t *testing.T, what string, m *Int8Map, y, h int, want []int8) {
	t.Helper()
	rb, s := m.rowBytes(), m.slot(y)
	slots := [][]byte{m.buf[s*rb : (s+1)*rb]}
	if s < 2*m.pad {
		slots = append(slots, m.buf[(m.slots+s)*rb:(m.slots+s+1)*rb])
	}
	for _, row := range slots {
		for i, b := range row {
			x, ch := i/m.c4-m.pad, i%m.c4
			exp := byte(0x80)
			if y >= 0 && y < h && x >= 0 && x < m.w && ch < m.c {
				exp = byte(want[(ch*h+y)*m.w+x]) ^ 0x80
			}
			if b != exp {
				t.Fatalf("%s: %dx%dx%d map byte (y %d, x %d, ch %d) = %#02x, want %#02x", what, m.c, h, m.w, y, x, ch, b, exp)
			}
		}
	}
}

// checkResidualRows pins the row kernels' residual epilogue on every
// lane for a case whose convolution they take (stride 1, pad (K−1)/2):
// the case's first image pushed row by row through a ring of K slots —
// so every window past the first K rows sits on wrapped slots — and each
// output row computed once its window is published, by ConvRows against
// Conv2DInfer's fused output (f32) and by Int8ConvRows against the
// direct int8 convolution (want8), each followed by a separate
// scaled-add pass; into a fresh output and, when the case asks, in
// place over the residual. The same walk without a residual is
// Conv2DInfer's and Conv2DInferInt8's own.
func checkResidualRows(t *testing.T, c convCase, x, wt, bias *Tensor, f32 []float32, cc int8ConvCase, bias8, want8 []float32) {
	spec := c.spec
	h, w, p := c.h, c.w, spec.Pad
	plane := spec.OutC * h * w
	res := operand(rand.New(rand.NewSource(c.dataSeed+4)), plane, c.special)
	want := func(v []float32) []float32 {
		v = append([]float32(nil), v[:plane]...)
		for i := range v {
			v[i] = res[i] + float32(c.scale*v[i])
		}
		return v
	}
	wantF32, wantInt8 := want(f32), want(want8)
	for _, l := range kernelLanes {
		if !l.available() {
			continue
		}
		withLane(l, func() {
			gotF32, gotInt8 := make([]float32, plane), make([]float32, plane)
			r32, r8 := res, res
			if c.inPlace {
				copy(gotF32, res)
				copy(gotInt8, res)
				r32, r8 = gotF32, gotInt8
			}
			k32 := NewConvRows(wt, bias, spec, w, c.relu)
			k8 := NewInt8ConvRows(cc.wq, cc.scales, bias8, spec, w, c.relu)
			var ring Ring
			var m Int8Map
			ring.Reset(spec.InC, w, p, spec.K, true)
			m.Reset(spec.InC, w, p, spec.K)
			for y := -p; y < 0; y++ {
				ring.Zero(y)
				m.ZeroRow(y)
			}
			for iy := 0; iy < h+p; iy++ {
				if iy < h {
					row := ring.Row(iy)
					for ch := 0; ch < spec.InC; ch++ {
						copy(row[ch*ring.Stride():][:w], x.Data[(ch*h+iy)*w:])
					}
					ring.Publish(iy)
					layRowInt8(m.pixels(iy), cc.xq[iy*w:], h*w, spec.InC, m.c4, w)
					m.publish(iy)
				} else {
					ring.Zero(iy)
					m.ZeroRow(iy)
				}
				if oy := iy - p; oy >= 0 {
					k32.Row(&ring, oy, gotF32[oy*w:], h*w, r32[oy*w:], c.scale)
					k8.Row(&m, oy, gotInt8[oy*w:], h*w, r8[oy*w:], c.scale)
				}
			}
			k32.Release()
			k8.Release()
			diffBits(t, "ConvRows residual "+l.name+" lane over a ring vs Conv2DInfer + scaled add", gotF32, wantF32)
			diffBits(t, "Int8ConvRows residual "+l.name+" lane over a ring vs direct int8 convolution + scaled add", gotInt8, wantInt8)
		})
	}
}

// TestKernelsDifferentialConv draws convolution geometries — pad 0/1,
// stride 1/2, the 3-channel head and 3-row tail shapes, the 64-output
// upsampling shape, channel counts off the 4-byte group and the 16-byte
// chunk — on one to three workers.
func TestKernelsDifferentialConv(t *testing.T) {
	if !hostAVX512 {
		t.Log("avx512 lane skipped: this host or build has no AVX-512 VNNI")
	}
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 200; i++ {
		checkConvCase(t, drawConvCase(rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))))
	}
}

func FuzzConvKernels(f *testing.F) {
	f.Add(int64(1), uint8(0x35), uint8(0x42), uint8(0x09), uint8(0))     // 16→16, pad 1, ReLU
	f.Add(int64(2), uint8(0x7a), uint8(0x14), uint8(0x0b), uint8(0))     // 16→3 tail, specials
	f.Add(int64(3), uint8(0x11), uint8(0x32), uint8(0x1c), uint8(0))     // 3→7 head, stride 2 (Conv2DForward/Backward only; no inference leg)
	f.Add(int64(4), uint8(0x00), uint8(0x05), uint8(0x62), uint8(0))     // 17 channels, K=1
	f.Add(int64(5), uint8(0x63), uint8(0x65), uint8(0x2b), uint8(0))     // 17→64, odd width, specials, 3 workers
	f.Add(int64(6), uint8(0x26), uint8(0x52), uint8(0x0b), uint8(0))     // 3→17, specials
	f.Add(int64(7), uint8(0x94), uint8(0x33), uint8(0x2d), uint8(0))     // 5→7, stride 2 (Conv2DForward/Backward only; no inference leg), 3 workers
	f.Add(int64(8), uint8(0x05), uint8(0x44), uint8(0x08), uint8(0x25))  // 16→16 residual ×1 in place, width 480
	f.Add(int64(9), uint8(0x03), uint8(0x44), uint8(0x1a), uint8(0x1b))  // 16→16 residual ×0.1, width 33, specials, 2 workers
	f.Add(int64(10), uint8(0x06), uint8(0x14), uint8(0x08), uint8(0x11)) // 16→3 tail residual ×1, width 31
	f.Add(int64(11), uint8(0x0a), uint8(0x34), uint8(0x09), uint8(0x0f)) // 16→7, ReLU, residual ×0.1 in place, width 1
	f.Add(int64(12), uint8(0x02), uint8(0x33), uint8(0xe2), uint8(0x19)) // 5→7, K=1 pad 0, n=2, 3 workers, residual, width 33, specials
	f.Add(int64(13), uint8(0x01), uint8(0x12), uint8(0x0b), uint8(0x20)) // 3→3, ReLU, specials, width 480
	f.Add(int64(14), uint8(0x44), uint8(0x33), uint8(0x0c), uint8(0x03)) // 5→7 stride 2 (Conv2DForward/Backward only; no inference leg)
	f.Add(int64(15), uint8(0x05), uint8(0x42), uint8(0x09), uint8(0x2d)) // 3→16 head, ReLU, residual ×1 in place, width 15 (one short AMX tile)
	f.Add(int64(16), uint8(0x13), uint8(0x44), uint8(0x0a), uint8(0x37)) // 16→16 residual ×0.1 in place, width 17, specials
	f.Add(int64(17), uint8(0x02), uint8(0x14), uint8(0x08), uint8(0x15)) // 16→3 tail residual ×1 in place, width 31
	f.Add(int64(18), uint8(0x01), uint8(0x64), uint8(0x18), uint8(0x0d)) // 16→64 residual in place, width 1, 2 workers
	f.Add(int64(19), uint8(0x24), uint8(0x46), uint8(0x09), uint8(0x28)) // 64-channel map (three 64-byte slices), ReLU, width 15
	f.Add(int64(20), uint8(0x03), uint8(0x66), uint8(0x0b), uint8(0x31)) // 64→64, ReLU, specials, residual, width 17
	// Row entry points whose windows sit on wrapped ring slots
	// (Conv2DInfer, Conv2DInferInt8, checkResidualRows, checkMapCase):
	// many rows through 3-slot rings.
	f.Add(int64(21), uint8(0x0c), uint8(0x44), uint8(0x09), uint8(0x20)) // 16→16, ReLU, 15 rows, width 480
	f.Add(int64(22), uint8(0x07), uint8(0x66), uint8(0x09), uint8(0x2d)) // 64→64, ReLU, residual ×1 in place, 10 rows, width 15
	f.Add(int64(23), uint8(0x05), uint8(0x33), uint8(0x20), uint8(0x0b)) // 5→7, K=1 pad 0 (a 1-slot ring), 6 rows, residual ×0.1, width 31
	f.Fuzz(func(t *testing.T, seed int64, shape, chans, flags, extra uint8) {
		checkConvCase(t, drawConvCase(seed, shape, chans, flags, extra))
	})
}
