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

// packInt8HighLanes packs rows (rows × k int8) flat into rows × g
// uint64 words, g = packedGroups(k), with descending lanes from bit
// swarDiagShift — the record-side layout, so that the weight·record
// lane polynomials align element t with element t on the product
// diagonal. sums[i] receives Σ(v+128) over the padded row.
func packInt8HighLanes(src []int8, rows, k int, dst []uint64, sums []uint64) {
	if k > swarMaxK {
		panic("tensor: int8 GEMM reduction too large")
	}
	g := packedGroups(k)
	for i := 0; i < rows; i++ {
		row := src[i*k : (i+1)*k]
		drow := dst[i*g : (i+1)*g]
		var sum uint64
		di, t := 0, 0
		for ; t+swarGroup <= k; t += swarGroup {
			v0 := uint64(int64(row[t]) + swarBias)
			v1 := uint64(int64(row[t+1]) + swarBias)
			v2 := uint64(int64(row[t+2]) + swarBias)
			sum += v0 + v1 + v2
			drow[di] = v0<<swarDiagShift | v1<<(swarDiagShift-swarLane) | v2<<(swarDiagShift-2*swarLane)
			di++
		}
		if t < k {
			var v [swarGroup]uint64
			for q := range v {
				if t+q < k {
					v[q] = uint64(int64(row[t+q]) + swarBias)
				} else {
					v[q] = swarBias // padding packs as int8 value 0
				}
				sum += v[q]
			}
			drow[di] = v[0]<<swarDiagShift | v[1]<<(swarDiagShift-swarLane) | v[2]<<(swarDiagShift-2*swarLane)
		}
		sums[i] = sum
	}
}

// gemmInt8Rows computes the int8 GEMM out(m×cols) = w(m×k) · recᵀ over
// packed operands: wp/wsum from packInt8RowsBlocked (blocked-interleaved
// weight rows), rp/rsum from packInt8HighLanes (flat records), g packed
// words per row. Out element (i, j) lands at out[i*outStride + outOff +
// j]. The fused epilogue applies the per-row requantization scale,
// bias, and optional ReLU:
//
//	out[i][j] = relu( float32(Σ_kk w[i][kk]·rec[j][kk]) * scales[i] + bias[i] )
func gemmInt8Rows(wp, wsum, rp, rsum []uint64, out []float32, m, g, cols, outOff, outStride int, scales, bias []float32, relu bool) {
	// The unbias identity over the padded length kp = g·swarGroup:
	// true dot = biased dot − 128·(rowSum + recSum) + 128²·kp.
	corr := int32(swarBias * swarBias * g * swarGroup)
	nb4 := m / 4
	for b := 0; b < nb4; b++ {
		i := b * 4
		wblk := wp[b*4*g : (b+1)*4*g]
		wt0 := corr - swarBias*int32(wsum[i])
		wt1 := corr - swarBias*int32(wsum[i+1])
		wt2 := corr - swarBias*int32(wsum[i+2])
		wt3 := corr - swarBias*int32(wsum[i+3])
		s0, s1, s2, s3 := scales[i], scales[i+1], scales[i+2], scales[i+3]
		var b0, b1, b2, b3 float32
		if bias != nil {
			b0, b1, b2, b3 = bias[i], bias[i+1], bias[i+2], bias[i+3]
		}
		o0 := out[i*outStride+outOff : i*outStride+outOff+cols]
		o1 := out[(i+1)*outStride+outOff : (i+1)*outStride+outOff+cols]
		o2 := out[(i+2)*outStride+outOff : (i+2)*outStride+outOff+cols]
		o3 := out[(i+3)*outStride+outOff : (i+3)*outStride+outOff+cols]
		for j := 0; j < cols; j++ {
			d0, d1, d2, d3 := swarDotRows4(wblk, rp[j*g:j*g+g])
			rterm := swarBias * int32(rsum[j])
			o0[j] = requantInt8(int32(d0)+wt0-rterm, s0, b0, relu)
			o1[j] = requantInt8(int32(d1)+wt1-rterm, s1, b1, relu)
			o2[j] = requantInt8(int32(d2)+wt2-rterm, s2, b2, relu)
			o3[j] = requantInt8(int32(d3)+wt3-rterm, s3, b3, relu)
		}
	}
	for i := nb4 * 4; i < m; i++ {
		wrow := wp[nb4*4*g+(i-nb4*4)*g : nb4*4*g+(i-nb4*4+1)*g]
		wt := corr - swarBias*int32(wsum[i])
		si := scales[i]
		var bi float32
		if bias != nil {
			bi = bias[i]
		}
		orow := out[i*outStride+outOff : i*outStride+outOff+cols]
		for j := 0; j < cols; j++ {
			d := swarDotRow1(wrow, rp[j*g:j*g+g])
			orow[j] = requantInt8(int32(d)+wt-swarBias*int32(rsum[j]), si, bi, relu)
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
