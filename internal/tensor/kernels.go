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
// The kernels read row kk of b at b[off[kk]:], through an offset table:
// a plain GEMM's table is kk·n, and the implicit-GEMM convolution
// (conv.go) passes the offsets of its column-matrix rows inside a padded
// input band, so the column matrix is addressed in place, never built.
//
// On AVX2 hosts gemmOffRows and gemmTARows hand their rows to gemmTiles
// (the assembly tile in simd_amd64.s) and matmulBT reaches it through a
// transposed operand; the same ordering rule holds there, so both paths
// produce the same bits and the *Go bodies below remain the portable
// kernels and the assembly's oracle.

// epilogue is what the kernels apply to each finished sum v of output
// row i, column j, in this order: v += bias[i] (a zero bias when relu is
// set without one), v < 0 → 0 under relu, then, when res is set,
// v = res[i·outStride + j] + float32(scale·v) — a residual add rounded
// step by step, exactly as a separate scaled-add pass. res may be out
// itself. Every step applies to the completed sum, so the fused epilogue
// matches separate passes bitwise.
type epilogue struct {
	bias  []float32
	relu  bool
	res   []float32
	scale float32
}

// rows returns the epilogue of output rows [lo, …): bias and res
// re-indexed from lo.
func (ep epilogue) rows(lo, outStride int) epilogue {
	if ep.bias != nil {
		ep.bias = ep.bias[lo:]
	}
	if ep.res != nil {
		ep.res = ep.res[lo*outStride:]
	}
	return ep
}

// bits encodes the epilogue for the assembly tiles: bit 0 adds the
// bias (a zero one under ReLU alone, as the portable epilogue does), bit
// 1 applies ReLU, bit 2 the residual.
func (ep epilogue) bits() int {
	epi := 0
	if ep.bias != nil || ep.relu {
		epi = 1
	}
	if ep.relu {
		epi |= 2
	}
	if ep.res != nil {
		epi |= 4
	}
	return epi
}

// gemmRows computes out rows [lo, hi) of out(m×n) = a(m×k) * b(k×n),
// where consecutive out rows are outStride apart (outStride >= n), with
// the epilogue ep applied to every completed sum.
func gemmRows(a, b, out []float32, lo, hi, k, n, outStride int, ep epilogue) {
	offBuf := denseOffsets(k, n)
	gemmOffRows(a, b, *offBuf, out, lo, hi, k, n, outStride, ep)
	scratchInt.put(offBuf)
}

// denseOffsets returns, from the scratch arena, the offset table of a
// dense row-major (k×n) matrix: row kk at kk·n.
func denseOffsets(k, n int) *[]int {
	offBuf := scratchInt.get(k)
	for kk := range *offBuf {
		(*offBuf)[kk] = kk * n
	}
	return offBuf
}

// gemmOffRows computes out rows [lo, hi) of out = a(m×k) · B, where row
// kk of B is b[off[kk] : off[kk]+n], with the epilogue ep.
func gemmOffRows(a, b []float32, off []int, out []float32, lo, hi, k, n, outStride int, ep epilogue) {
	if useAVX2 && lo < hi && k > 0 && n > 0 {
		gemmTiles(a[lo*k:], k, 1, b, off, out[lo*outStride:], hi-lo, k, n, outStride, ep.rows(lo, outStride))
		return
	}
	gemmRowsGo(a, b, off, out, lo, hi, k, n, outStride, ep)
}

// gemmRowsGo is the portable gemmOffRows: the only kernel on hosts
// without the assembly, and the oracle the assembly is tested against.
// Without a residual it sums in place in out; with one it sums into
// scratch first, since out may be res, which the epilogue reads.
func gemmRowsGo(a, b []float32, off []int, out []float32, lo, hi, k, n, outStride int, ep epilogue) {
	if ep.res == nil {
		gemmSumsGo(a, b, off, out, lo, hi, k, n, outStride)
		if ep.bias != nil || ep.relu {
			for i := lo; i < hi; i++ {
				row := out[i*outStride : i*outStride+n]
				ep.finish(row, row, nil, i)
			}
		}
		return
	}
	sumBuf := scratchF32.get((hi - lo) * n)
	sums := *sumBuf
	gemmSumsGo(a[lo*k:], b, off, sums, 0, hi-lo, k, n, n)
	for i := lo; i < hi; i++ {
		ep.finish(sums[(i-lo)*n:(i-lo+1)*n], out[i*outStride:], ep.res[i*outStride:], i)
	}
	scratchF32.put(sumBuf)
}

// finish applies the epilogue of output row i to the row's finished
// sums, writing it to dst: sums itself, or, with res the row's residual,
// a row that may be res.
func (ep epilogue) finish(sums, dst, res []float32, i int) {
	dst = dst[:len(sums)]
	if res != nil {
		res = res[:len(sums)]
	}
	var bv float32
	if ep.bias != nil {
		bv = ep.bias[i]
	}
	addBias := ep.bias != nil || ep.relu
	for j, v := range sums {
		if addBias {
			v += bv
		}
		if ep.relu && v < 0 {
			v = 0
		}
		if res != nil {
			v = res[j] + float32(ep.scale*v)
		}
		dst[j] = v
	}
}

// gemmSumsGo writes the bare sums Σ_kk a[i·k + kk] · b[off[kk] + j] of
// out rows [lo, hi), each from +0 in ascending kk.
func gemmSumsGo(a, b []float32, off []int, out []float32, lo, hi, k, n, outStride int) {
	off = off[:k]
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
		for kk, bo := range off {
			a0 := a[i*k+kk]
			a1 := a[(i+1)*k+kk]
			a2 := a[(i+2)*k+kk]
			a3 := a[(i+3)*k+kk]
			brow := b[bo : bo+n]
			// Reslicing the accumulator rows to brow's length lets the
			// compiler drop all four bounds checks in the hot loop.
			x0, x1, x2, x3 := o0[:len(brow)], o1[:len(brow)], o2[:len(brow)], o3[:len(brow)]
			for j, bv := range brow {
				x0[j] += float32(a0 * bv)
				x1[j] += float32(a1 * bv)
				x2[j] += float32(a2 * bv)
				x3[j] += float32(a3 * bv)
			}
		}
	}
	for ; i < hi; i++ {
		orow := out[i*outStride : i*outStride+n]
		for j := range orow {
			orow[j] = 0
		}
		for kk, bo := range off {
			av := a[i*k+kk]
			brow := b[bo : bo+n]
			for j, bv := range brow {
				orow[j] += float32(av * bv)
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
		offBuf := denseOffsets(m, n)
		gemmTiles(a[lo:], 1, k, b, *offBuf, out[lo*n:], hi-lo, m, n, n, epilogue{})
		scratchInt.put(offBuf)
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
				x0[j] += float32(a0 * bv)
				x1[j] += float32(a1 * bv)
				x2[j] += float32(a2 * bv)
				x3[j] += float32(a3 * bv)
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
				orow[j] += float32(av * bv)
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
				s0 += float32(av * b0[j])
				s1 += float32(av * b1[j])
				s2 += float32(av * b2[j])
				s3 += float32(av * b3[j])
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
				s += float32(av * brow[j])
			}
			orow[r] = s
		}
	}
}

// gemmTiles runs the AVX2 register tile (gemmTileAVX2, four output rows
// by sixteen columns) over rows output rows:
//
//	out[r·outStride + j] = ep( Σ_kk a[r·aRow + kk·aK] · b[off[kk] + j] )
//
// for r < rows, j < n, with ep's bias indexed by r and its res laid out
// like out. gemmOffRows and gemmTARows are this one routine with two
// ways of walking a.
func gemmTiles(a []float32, aRow, aK int, b []float32, off []int, out []float32, rows, k, n, outStride int, ep epilogue) {
	// The assembly trusts these extents.
	_ = a[(rows-1)*aRow+(k-1)*aK]
	maxOff := 0
	for _, o := range off[:k] {
		if o < 0 {
			panic("tensor: negative GEMM operand offset")
		}
		maxOff = max(maxOff, o)
	}
	_ = b[maxOff+n-1]
	_ = out[(rows-1)*outStride+n-1]
	if ep.res != nil {
		_ = ep.res[(rows-1)*outStride+n-1]
	}
	epi := ep.bits()
	// Column panels outermost: a panel of b (k rows of gemmPanel
	// floats) stays in L1 while every row block sweeps it, so b streams
	// from the next cache level once instead of once per row block.
	var bv [4]float32
	var res *float32
	for j := 0; j < n; j += gemmPanel {
		nc := min(gemmPanel, n-j)
		for r := 0; r < rows; r += 4 {
			nr := min(4, rows-r)
			if ep.bias != nil {
				copy(bv[:], ep.bias[r:r+nr])
			}
			if ep.res != nil {
				res = &ep.res[r*outStride+j]
			}
			gemmTileAVX2(&a[r*aRow], aRow, aK, &b[j], &off[0], &out[r*outStride+j], outStride, nr, k, nc, &bv[0], res, ep.scale, epi)
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
// it uses: AVX2 needs the YMM state; the AVX-512 lane the opmask and
// full ZMM state as well, plus AVX-512 F, BW and VL for the masked
// float32, byte and 256-bit forms its tiles use, and VNNI for the int8
// dot products. Executing either without them is SIGILL.
func cpuLanes(maxLeaf, ecx1, ebx7, ecx7, xcr0 uint32) (avx2, avx512 bool) {
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
	avx512 = avx2 && xcr0&zmmState == zmmState && ebx7&avx512FBWVL == avx512FBWVL && ecx7&avx512VNNI != 0
	return avx2, avx512
}

// amxLane decides the AMX-INT8 lane from leaf 7's EDX, XCR0 and the
// kernel's answer to the tile-data permission request (nil: granted).
// The lane needs AMX-TILE and AMX-INT8 (EDX bits 24, 25), the OS
// managing the tile configuration and data state (XCR0 bits 17, 18),
// the permission, and the AVX-512 lane, whose epilogues it shares. Any
// of them missing leaves the VNNI lane.
func amxLane(avx512 bool, edx7, xcr0 uint32, permErr error) bool {
	const (
		amxTileInt8 = 1<<24 | 1<<25 // leaf 7 EDX
		tileState   = 1<<17 | 1<<18 // XCR0: XTILECFG, XTILEDATA
	)
	return avx512 && edx7&amxTileInt8 == amxTileInt8 && xcr0&tileState == tileState && permErr == nil
}
