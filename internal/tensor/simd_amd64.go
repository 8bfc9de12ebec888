//go:build !purego

package tensor

// useAVX2 selects the AVX2 micro-kernels in simd_amd64.s under the
// kernel entry points. It is decided once, from CPUID, and is a
// variable only so the package's tests can also run the portable path
// on an AVX2 host.
var useAVX2 = detectAVX2()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether the CPU implements AVX2 and the OS saves
// the YMM state across context switches.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func gemmTileAVX2(a *float32, aRow, aK int, b *float32, bStride int, out *float32, outStride, rows, k, n int, bias *float32, epi int)

//go:noescape
func convRowInt8AVX2(rec *int8, rowBytes, pixBytes, kRows, chunks int, w *int8, sb *float32, nb4 int, out *float32, planeStride, cols, outC, relu int)

//go:noescape
func quantizeInt8AVX2(dst *int8, src *float32, n int, inv float32)
