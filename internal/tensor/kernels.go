package tensor

// Register-blocked GEMM kernels. All three variants process output rows
// in blocks of four so the inner loop keeps four accumulator rows (or
// four dot products) live in registers and reads each shared operand row
// once per block instead of once per output row. Every output element is
// still accumulated in a fixed ascending order over the reduction
// dimension, so results are bit-identical to the naive reference kernels
// run in the same order — parallel chunk boundaries and block grouping
// change only which elements are computed together, never the order of
// any single element's sum.
//
// On AVX2 hosts gemmRows and gemmTARows hand their rows to gemmTiles
// (the assembly tile in simd_amd64.s) and matmulBT reaches it through a
// transposed operand; the same ordering rule holds there, so both paths
// produce the same bits and the *Go bodies below remain the portable
// kernels and the assembly's oracle.

// gemmRows computes out rows [lo, hi) of out(m×n) = a(m×k) * b(k×n),
// where consecutive out rows are outStride apart (outStride >= n, which
// lets a conv band write into a larger output plane). When bias is
// non-nil, bias[i] is added to every element of out row i after the full
// k-sum, and when relu is set the activation is fused into the same
// pass; both match a separate post-pass bitwise because they apply to
// the completed sum.
func gemmRows(a, b, out []float32, lo, hi, k, n, outStride int, bias []float32, relu bool) {
	if useAVX2 && lo < hi && k > 0 && n > 0 {
		if bias != nil {
			bias = bias[lo:hi]
		}
		gemmTiles(a[lo*k:], k, 1, b, out[lo*outStride:], hi-lo, k, n, outStride, bias, relu)
		return
	}
	gemmRowsGo(a, b, out, lo, hi, k, n, outStride, bias, relu)
}

// gemmRowsGo is the portable gemmRows: the only kernel on hosts without
// the assembly, and the oracle the assembly is tested against.
func gemmRowsGo(a, b, out []float32, lo, hi, k, n, outStride int, bias []float32, relu bool) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		o0 := out[i*outStride : i*outStride+n]
		o1 := out[(i+1)*outStride : (i+1)*outStride+n]
		o2 := out[(i+2)*outStride : (i+2)*outStride+n]
		o3 := out[(i+3)*outStride : (i+3)*outStride+n]
		for j := range o0 {
			o0[j] = 0
			o1[j] = 0
			o2[j] = 0
			o3[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			a0 := a[i*k+kk]
			a1 := a[(i+1)*k+kk]
			a2 := a[(i+2)*k+kk]
			a3 := a[(i+3)*k+kk]
			brow := b[kk*n : kk*n+n]
			// Reslicing the accumulator rows to brow's length lets the
			// compiler drop all four bounds checks in the hot loop.
			x0, x1, x2, x3 := o0[:len(brow)], o1[:len(brow)], o2[:len(brow)], o3[:len(brow)]
			for j, bv := range brow {
				x0[j] += a0 * bv
				x1[j] += a1 * bv
				x2[j] += a2 * bv
				x3[j] += a3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		orow := out[i*outStride : i*outStride+n]
		for j := range orow {
			orow[j] = 0
		}
		arow := a[i*k : (i+1)*k]
		for kk, av := range arow {
			brow := b[kk*n : kk*n+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	if bias != nil || relu {
		for i := lo; i < hi; i++ {
			var bv float32
			if bias != nil {
				bv = bias[i]
			}
			orow := out[i*outStride : i*outStride+n]
			for j, v := range orow {
				v += bv
				if relu && v < 0 {
					v = 0
				}
				orow[j] = v
			}
		}
	}
}

// gemmTARows computes out rows [lo, hi) of out(k×n) = aᵀ * b where a is
// (m×k) and b is (m×n): out[r][j] = Σ_i a[i][r] * b[i][j]. Each output
// element reduces over i in ascending order. Blocking four out rows
// reads each b row once per block instead of once per row.
func gemmTARows(a, b, out []float32, lo, hi, m, k, n int) {
	if useAVX2 && lo < hi && m > 0 && n > 0 {
		// The same tile as gemmRows, walking a down a column: output row
		// r reads a[i·k + r] at reduction step i.
		gemmTiles(a[lo:], 1, k, b, out[lo*n:], hi-lo, m, n, n, nil, false)
		return
	}
	gemmTARowsGo(a, b, out, lo, hi, m, k, n)
}

// gemmTARowsGo is the portable gemmTARows.
func gemmTARowsGo(a, b, out []float32, lo, hi, m, k, n int) {
	r := lo
	for ; r+4 <= hi; r += 4 {
		o0 := out[r*n : r*n+n]
		o1 := out[(r+1)*n : (r+1)*n+n]
		o2 := out[(r+2)*n : (r+2)*n+n]
		o3 := out[(r+3)*n : (r+3)*n+n]
		for j := range o0 {
			o0[j] = 0
			o1[j] = 0
			o2[j] = 0
			o3[j] = 0
		}
		for i := 0; i < m; i++ {
			a0 := a[i*k+r]
			a1 := a[i*k+r+1]
			a2 := a[i*k+r+2]
			a3 := a[i*k+r+3]
			brow := b[i*n : i*n+n]
			x0, x1, x2, x3 := o0[:len(brow)], o1[:len(brow)], o2[:len(brow)], o3[:len(brow)]
			for j, bv := range brow {
				x0[j] += a0 * bv
				x1[j] += a1 * bv
				x2[j] += a2 * bv
				x3[j] += a3 * bv
			}
		}
	}
	for ; r < hi; r++ {
		orow := out[r*n : r*n+n]
		for j := range orow {
			orow[j] = 0
		}
		for i := 0; i < m; i++ {
			av := a[i*k+r]
			brow := b[i*n : i*n+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// gemmBTRows computes out rows [lo, hi) of out(m×k) = a(m×n) * bᵀ where
// b is (k×n): out[i][r] = Σ_j a[i][j] * b[r][j]. Four dot products run
// per pass over a row of a, each accumulating in ascending j order.
func gemmBTRows(a, b, out []float32, lo, hi, n, k int) {
	for i := lo; i < hi; i++ {
		arow := a[i*n : i*n+n]
		orow := out[i*k : i*k+k]
		r := 0
		for ; r+4 <= k; r += 4 {
			b0 := b[r*n : r*n+n][:len(arow)]
			b1 := b[(r+1)*n : (r+1)*n+n][:len(arow)]
			b2 := b[(r+2)*n : (r+2)*n+n][:len(arow)]
			b3 := b[(r+3)*n : (r+3)*n+n][:len(arow)]
			var s0, s1, s2, s3 float32
			for j, av := range arow {
				s0 += av * b0[j]
				s1 += av * b1[j]
				s2 += av * b2[j]
				s3 += av * b3[j]
			}
			orow[r] = s0
			orow[r+1] = s1
			orow[r+2] = s2
			orow[r+3] = s3
		}
		for ; r < k; r++ {
			brow := b[r*n : r*n+n]
			var s float32
			for j, av := range arow {
				s += av * brow[j]
			}
			orow[r] = s
		}
	}
}

// gemmTiles runs the AVX2 register tile (gemmTileAVX2, four output rows
// by sixteen columns) over rows output rows:
//
//	out[r·outStride + j] = Σ_kk a[r·aRow + kk·aK] · b[kk·n + j]
//
// for r < rows, j < n, with the optional bias (indexed by r) and ReLU
// applied to each finished sum. gemmRows and gemmTARows are this one
// routine with two ways of walking a.
func gemmTiles(a []float32, aRow, aK int, b, out []float32, rows, k, n, outStride int, bias []float32, relu bool) {
	// The assembly trusts these extents.
	_ = a[(rows-1)*aRow+(k-1)*aK]
	_ = b[k*n-1]
	_ = out[(rows-1)*outStride+n-1]
	epi := 0
	if bias != nil || relu {
		epi = 1 // the portable epilogue adds a zero bias under ReLU alone
	}
	if relu {
		epi |= 2
	}
	// Column panels outermost: a panel of b (k rows of gemmPanel
	// floats) stays in L1 while every row block sweeps it, so b streams
	// from the next cache level once instead of once per row block.
	var bv [4]float32
	for j := 0; j < n; j += gemmPanel {
		nc := min(gemmPanel, n-j)
		for r := 0; r < rows; r += 4 {
			nr := min(4, rows-r)
			if bias != nil {
				copy(bv[:], bias[r:r+nr])
			}
			gemmTileAVX2(&a[r*aRow], aRow, aK, &b[j], n, &out[r*outStride+j], outStride, nr, k, nc, &bv[0], epi)
		}
	}
}

// gemmPanel is the column-panel width of gemmTiles, a multiple of the
// tile's sixteen columns.
const gemmPanel = 32

// cpuLanes decides, once, which assembly lanes the kernels may take,
// from the raw CPUID and XGETBV words: maxLeaf is leaf 0's EAX, ecx1
// leaf 1's ECX, ebx7 and ecx7 leaf 7's EBX and ECX, and xcr0 the OS's
// enabled register state (0 when OSXSAVE is clear and it cannot be
// read). A lane needs the instructions and the OS saving the registers
// it uses: AVX2 needs the YMM state, VNNI the opmask and full ZMM state
// as well, plus AVX-512 F, BW and VL for the masked byte and 256-bit
// forms its tile uses. Executing either without them is SIGILL.
func cpuLanes(maxLeaf, ecx1, ebx7, ecx7, xcr0 uint32) (avx2, vnni bool) {
	const (
		osxsave, avx = 1 << 27, 1 << 28 // leaf 1 ECX
		avx2Bit      = 1 << 5           // leaf 7 EBX
		avx512FBWVL  = 1<<16 | 1<<30 | 1<<31
		avx512VNNI   = 1 << 11 // leaf 7 ECX
		ymmState     = 0x06    // XCR0: SSE, AVX
		zmmState     = 0xE6    // and opmask, ZMM_Hi256, Hi16_ZMM
	)
	if maxLeaf < 7 || ecx1&osxsave == 0 || ecx1&avx == 0 || xcr0&ymmState != ymmState {
		return false, false
	}
	avx2 = ebx7&avx2Bit != 0
	vnni = avx2 && xcr0&zmmState == zmmState && ebx7&avx512FBWVL == avx512FBWVL && ecx7&avx512VNNI != 0
	return avx2, vnni
}
