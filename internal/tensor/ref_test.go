package tensor

// The naive reference kernels. The portable production kernels are the
// assembly's oracle; these, whose correctness is obvious by inspection,
// are the oracle's oracle.

// matmulRef is the naive reference for gemmRows (no bias, no relu),
// retained so parity tests can check the blocked kernel against an
// implementation whose correctness is obvious by inspection.
func matmulRef(a, b, out []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := a[i*k+kk]
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matmulTARef is the naive reference for gemmTARows.
func matmulTARef(a, b, out []float32, m, k, n int) {
	for r := 0; r < k; r++ {
		orow := out[r*n : (r+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		for i := 0; i < m; i++ {
			av := a[i*k+r]
			brow := b[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matmulBTRef is the naive reference for gemmBTRows.
func matmulBTRef(a, b, out []float32, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*n : (i+1)*n]
		for r := 0; r < k; r++ {
			brow := b[r*n : (r+1)*n]
			var s float32
			for j, av := range arow {
				s += av * brow[j]
			}
			out[i*k+r] = s
		}
	}
}

// matmulInt8Ref is the naive reference for gemmInt8Rows, operating on
// the unpacked int8 operands with plain int32 accumulation, retained so
// parity tests check the SWAR kernel against an implementation whose
// correctness is obvious by inspection. It writes the full m×cols
// output contiguously (outStride = cols, outOff = 0).
func matmulInt8Ref(w, rec []int8, out []float32, m, k, cols int, scales, bias []float32, relu bool) {
	for i := 0; i < m; i++ {
		wrow := w[i*k : (i+1)*k]
		var bi float32
		if bias != nil {
			bi = bias[i]
		}
		for j := 0; j < cols; j++ {
			rrow := rec[j*k : (j+1)*k]
			var acc int32
			for kk := range rrow {
				acc += int32(wrow[kk]) * int32(rrow[kk])
			}
			out[i*cols+j] = requantInt8(acc, scales[i], bi, relu)
		}
	}
}
