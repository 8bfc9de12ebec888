//go:build !purego

package tensor

// useAVX2 selects the AVX2 micro-kernels in simd_amd64.s under the
// kernel entry points, useAVX512 the AVX-512 lane ahead of them (the
// VNNI int8 convolution and the float32 implicit-GEMM tile) and useAMX
// the AMX-INT8 int8 convolution ahead of that. All are decided once,
// from CPUID and the kernel's answer to the tile-data permission
// request, and are variables only so the package's tests can also run
// the slower lanes on a faster host.
var useAVX2, useAVX512, useAMX = detectLanes()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectLanes() (avx2, avx512, amx bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7, ecx7, edx7 uint32
	if ecx1&(1<<27) != 0 { // OSXSAVE: XGETBV is available
		xcr0, _ = xgetbv()
	}
	if maxLeaf >= 7 {
		_, ebx7, ecx7, edx7 = cpuid(7, 0)
	}
	avx2, avx512 = cpuLanes(maxLeaf, ecx1, ebx7, ecx7, xcr0)
	// The permission request is made only where the CPU and the OS
	// state allow the lane, once per process.
	if amxLane(avx512, edx7, xcr0, nil) {
		amx = amxLane(avx512, edx7, xcr0, requestAMX())
	}
	return avx2, avx512, amx
}

//go:noescape
func gemmTileAVX2(a *float32, aRow, aK int, b *float32, off *int, out *float32, outStride, rows, k, n int, bias, res *float32, scale float32, epi int)

//go:noescape
func convRowF32AVX512(b *float32, off *int, kk int, w, bias *float32, blocks, lastRows int, out *float32, planeStride, cols int, res *float32, scale float32, epi int)

//go:noescape
func convRowInt8AVX2(rec *byte, rowBytes, pixBytes, kRows, chunks int, w *int8, sb *float32, nb4 int, out *float32, planeStride, cols, outC, relu int, res *float32, scale float32)

//go:noescape
func convRowInt8VNNI(src *byte, rowBytes, pixBytes, kRows, pairs int, w *int8, sb *float32, nblk int, out *float32, planeStride, cols, outC, relu int, res *float32, scale float32)

//go:noescape
func convRowInt8VNNIMap(src *byte, rowBytes, pixBytes, kRows, pairs int, w *int8, sb *float32, nblk int, dst *byte, cols, outC int, inv float32)

//go:noescape
func convRowInt8AMX(src *byte, rowBytes, pixBytes, kRows, slices int, w *int8, sb *float32, nblk int, out *float32, planeStride, cols, outC, relu int, res *float32, scale float32, cfg *byte, sliceBytes int)

//go:noescape
func convRowInt8AMXMap(src *byte, rowBytes, pixBytes, kRows, slices int, w *int8, sb *float32, nblk int, dst *byte, cols, outC int, inv float32, cfg *byte, sliceBytes int)

//go:noescape
func quantizeMapRowAVX512(dst *byte, src *float32, planeStride, c, c4, w int, inv float32)

//go:noescape
func quantizeInt8AVX2(dst *int8, src *float32, n int, inv float32)
