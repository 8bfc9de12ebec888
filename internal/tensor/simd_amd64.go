//go:build !purego

package tensor

// useAVX2 selects the AVX2 micro-kernels in simd_amd64.s under the
// kernel entry points, and useAVX512 the AVX-512 lane ahead of them: the
// VNNI int8 convolution and the float32 implicit-GEMM tile. Both are
// decided once, from CPUID, and are variables only so the package's
// tests can also run the slower lanes on a faster host.
var useAVX2, useAVX512 = detectLanes()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectLanes() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7, ecx7 uint32
	if ecx1&(1<<27) != 0 { // OSXSAVE: XGETBV is available
		xcr0, _ = xgetbv()
	}
	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ = cpuid(7, 0)
	}
	return cpuLanes(maxLeaf, ecx1, ebx7, ecx7, xcr0)
}

//go:noescape
func gemmTileAVX2(a *float32, aRow, aK int, b *float32, off *int, out *float32, outStride, rows, k, n int, bias, res *float32, scale float32, epi int)

//go:noescape
func convRowF32AVX512(b *float32, off *int, kk int, w, bias *float32, blocks, lastRows int, out *float32, planeStride, cols int, res *float32, scale float32, epi int)

//go:noescape
func convRowInt8AVX2(rec *byte, rowBytes, pixBytes, kRows, chunks int, w *int8, sb *float32, nb4 int, out *float32, planeStride, cols, outC, relu int)

//go:noescape
func convRowInt8VNNI(src *byte, rowBytes, pixBytes, kRows, pairs int, w *int8, sb *float32, nblk int, out *float32, planeStride, cols, outC, relu int)

//go:noescape
func convRowInt8VNNIMap(src *byte, rowBytes, pixBytes, kRows, pairs int, w *int8, sb *float32, nblk int, dst *byte, cols, outC int, inv float32)

//go:noescape
func quantizeMapRowAVX512(dst *byte, src *float32, planeStride, c, c4, w int, inv float32)

//go:noescape
func quantizeInt8AVX2(dst *int8, src *float32, n int, inv float32)
