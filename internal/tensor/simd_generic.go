//go:build !amd64 || purego

package tensor

// useAVX2, useAVX512 and useAMX are never set in builds without the
// amd64 assembly: every kernel entry point runs its portable Go body.
var useAVX2, useAVX512, useAMX = false, false, false

func gemmTileAVX2(a *float32, aRow, aK int, b *float32, off *int, out *float32, outStride, rows, k, n int, bias, res *float32, scale float32, epi int) {
	panic("tensor: AVX2 kernels are not part of this build")
}

func convRowF32AVX512(b *float32, off *int, kk int, w, bias *float32, blocks, lastRows int, out *float32, planeStride, cols int, res *float32, scale float32, epi int) {
	panic("tensor: AVX-512 kernels are not part of this build")
}

func convRowInt8AVX2(rec *byte, rowBytes, pixBytes, kRows, chunks int, w *int8, sb *float32, nb4 int, out *float32, planeStride, cols, outC, relu int, res *float32, scale float32) {
	panic("tensor: AVX2 kernels are not part of this build")
}

func convRowInt8VNNI(src *byte, rowBytes, pixBytes, kRows, pairs int, w *int8, sb *float32, nblk int, out *float32, planeStride, cols, outC, relu int, res *float32, scale float32) {
	panic("tensor: VNNI kernels are not part of this build")
}

func convRowInt8VNNIMap(src *byte, rowBytes, pixBytes, kRows, pairs int, w *int8, sb *float32, nblk int, dst *byte, cols, outC int, inv float32) {
	panic("tensor: VNNI kernels are not part of this build")
}

func convRowInt8AMX(src *byte, rowBytes, pixBytes, kRows, slices int, w *int8, sb *float32, nblk int, out *float32, planeStride, cols, outC, relu int, res *float32, scale float32, cfg *byte, sliceBytes int) {
	panic("tensor: AMX kernels are not part of this build")
}

func convRowInt8AMXMap(src *byte, rowBytes, pixBytes, kRows, slices int, w *int8, sb *float32, nblk int, dst *byte, cols, outC int, inv float32, cfg *byte, sliceBytes int) {
	panic("tensor: AMX kernels are not part of this build")
}

func quantizeMapRowAVX512(dst *byte, src *float32, planeStride, c, c4, w int, inv float32) {
	panic("tensor: VNNI kernels are not part of this build")
}

func quantizeInt8AVX2(dst *int8, src *float32, n int, inv float32) {
	panic("tensor: AVX2 kernels are not part of this build")
}
