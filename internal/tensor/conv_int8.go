package tensor

import (
	"runtime"
	"sync"
)

// int8 and uint64 twins of the float32 scratch arena: the quantized
// conv path needs transient packed-section bands and a permuted weight
// staging buffer, and mixing element types in one pool would force a
// reallocation on every crossover.
var (
	scratchPoolInt8   = sync.Pool{New: func() any { return new([]int8) }}
	scratchPoolUint64 = sync.Pool{New: func() any { return new([]uint64) }}
)

// getScratchInt8 returns an int8 scratch buffer of length n from the
// arena; contents are unspecified. Return it with putScratchInt8.
func getScratchInt8(n int) *[]int8 {
	p := scratchPoolInt8.Get().(*[]int8)
	if cap(*p) < n {
		*p = make([]int8, n)
	}
	*p = (*p)[:n]
	return p
}

// putScratchInt8 returns a buffer obtained from getScratchInt8 to the
// arena. The caller must not retain any slice of it afterwards.
func putScratchInt8(p *[]int8) { scratchPoolInt8.Put(p) }

// getScratchUint64 returns a uint64 scratch buffer of length n from the
// arena; contents are unspecified. Return it with putScratchUint64.
func getScratchUint64(n int) *[]uint64 {
	p := scratchPoolUint64.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	return p
}

// putScratchUint64 returns a buffer obtained from getScratchUint64 to
// the arena. The caller must not retain any slice of it afterwards.
func putScratchUint64(p *[]uint64) { scratchPoolUint64.Put(p) }

// The int8 conv does not materialize per-output-pixel im2row records.
// With the record element order ky → ch → kx, a record splits into K
// sections, and the section for kernel row ky depends only on (iy, ox)
// where iy = oy·stride + ky − pad: it is the c·K input elements
// plane[ch][iy][ix0 .. ix0+K), ch-major, already in packed SWAR form.
// Sections are therefore shared by every output row whose kernel window
// crosses input row iy — packSectionsInt8 packs each one exactly once
// per band (K× less packing work than per-record expansion), and stores
// them x-major so the K sections of any record sit consecutively: the
// GEMM reads each record as a single contiguous packed slice. Integer
// accumulation is associative, so the split changes nothing bit-wise.

// packSectionsInt8 packs record sections for input rows [iy0, iy1) of
// the quantized plane xq (C,H,W), x-major: section (iy, ox) occupies
// gs = packedGroups(c·K) high-lane words at dst[(ox·R + iy−iy0)·gs]
// with R = iy1−iy0, and sums[ox·R + iy−iy0] receives Σ(v+128) over its
// padded elements. The transposed layout is the point: a record's K
// sections are consecutive input rows at one ox, so each record is one
// CONTIGUOUS K·gs-word slice — the GEMM hands it to swarDotRows4 whole,
// with no per-section call or gather. Rows outside [0, h) and x
// positions outside [0, w) contribute the zero-padding value (which
// packs as the bias), exactly like the im2row expansion this replaces.
func packSectionsInt8(xq []int8, c, h, w int, spec ConvSpec, iy0, iy1 int, dst, sums []uint64) {
	k, s, p := spec.K, spec.Stride, spec.Pad
	_, ow := spec.OutSize(h, w)
	secLen := c * k
	gs := packedGroups(secLen)
	nr := iy1 - iy0
	const biasWord uint64 = swarBias<<swarDiagShift |
		swarBias<<(swarDiagShift-swarLane) |
		swarBias<<(swarDiagShift-2*swarLane)
	for iy := iy0; iy < iy1; iy++ {
		row := iy - iy0
		if iy < 0 || iy >= h {
			for ox := 0; ox < ow; ox++ {
				si := ox*nr + row
				d := dst[si*gs : (si+1)*gs]
				for t := range d {
					d[t] = biasWord
				}
				sums[si] = uint64(swarGroup*gs) * swarBias
			}
			continue
		}
		rowBase := iy * w
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*s - p
			si := ox*nr + row
			d := dst[si*gs : (si+1)*gs]
			var sum uint64
			if k == 3 && ix0 >= 0 && ix0+3 <= w {
				// The dominant interior 3×3 case: one channel row slice is
				// exactly one packed group (gs == c), no padding anywhere.
				for ch := 0; ch < c; ch++ {
					row := xq[ch*h*w+rowBase+ix0:]
					v0 := uint64(int64(row[0]) + swarBias)
					v1 := uint64(int64(row[1]) + swarBias)
					v2 := uint64(int64(row[2]) + swarBias)
					sum += v0 + v1 + v2
					d[ch] = v0<<swarDiagShift | v1<<(swarDiagShift-swarLane) | v2<<(swarDiagShift-2*swarLane)
				}
			} else {
				// General path: stream the section's c·K elements into
				// high-lane groups, padding the x overhang and section tail.
				var v [swarGroup]uint64
				m3, di := 0, 0
				for ch := 0; ch < c; ch++ {
					row := xq[ch*h*w+rowBase : ch*h*w+rowBase+w]
					for kx := 0; kx < k; kx++ {
						e := uint64(swarBias)
						if ix := ix0 + kx; ix >= 0 && ix < w {
							e = uint64(int64(row[ix]) + swarBias)
						}
						sum += e
						v[m3] = e
						m3++
						if m3 == swarGroup {
							d[di] = v[0]<<swarDiagShift | v[1]<<(swarDiagShift-swarLane) | v[2]<<(swarDiagShift-2*swarLane)
							di++
							m3 = 0
						}
					}
				}
				if m3 != 0 {
					for ; m3 < swarGroup; m3++ {
						v[m3] = swarBias
						sum += swarBias
					}
					d[di] = v[0]<<swarDiagShift | v[1]<<(swarDiagShift-swarLane) | v[2]<<(swarDiagShift-2*swarLane)
				}
			}
			sums[si] = sum
		}
	}
}

// bandInt8Budget caps the packed-section scratch for one quantized
// inference band, in uint64 words (2^16 words = 512 KiB — L2-resident
// on anything modern; the band's sections are re-read once per weight
// block, so keeping them cache-hot is what the banding buys). Like
// bandFloatBudget the resulting band height depends only on the
// convolution geometry, never on GOMAXPROCS or the worker schedule, so
// banded outputs are bit-identical across runs and core counts.
const bandInt8Budget = 1 << 16

// Conv2DInferInt8 computes a batched 2-D convolution over a quantized
// input with int8×int8 → int32 accumulation (via the packed SWAR GEMM)
// and a fused requantize + bias + ReLU epilogue, writing float32
// results into out (grown via Ensure; pass nil to allocate on first
// use).
//
//	xq:     (N, InC, H, W) quantized input, row-major like Tensor.Data
//	wq:     (OutC, InC·K·K) quantized weights, flattened row-major
//	scales: per-output-channel requantization multiplier (weight scale ×
//	        activation scale), applied to each finished int32 sum
//	bias:   per-output-channel float32 bias, or nil
//
// It mirrors Conv2DInfer's execution structure: banded expansion into
// pooled scratch (packed sections rather than im2col columns), a
// closure-free serial path at GOMAXPROCS 1 (zero steady-state
// allocations), and the shared worker pool over bands or batch elements
// otherwise. Integer accumulation is exactly associative, so outputs
// are bit-identical across worker counts and to the naive reference
// kernel.
func Conv2DInferInt8(xq []int8, n, c, h, wd int, wq []int8, scales, bias []float32, spec ConvSpec, relu bool, out *Tensor) *Tensor {
	if c != spec.InC {
		panic("tensor: Conv2DInferInt8 channel mismatch")
	}
	if len(xq) != n*c*h*wd {
		panic("tensor: Conv2DInferInt8 input length mismatch")
	}
	colRows := spec.InC * spec.K * spec.K
	if len(wq) != spec.OutC*colRows {
		panic("tensor: Conv2DInferInt8 weight length mismatch")
	}
	if len(scales) != spec.OutC {
		panic("tensor: Conv2DInferInt8 scale length mismatch")
	}
	oh, ow := spec.OutSize(h, wd)
	out = Ensure(out, n, spec.OutC, oh, ow)
	secLen := c * spec.K
	gs := packedGroups(secLen)
	g := spec.K * gs
	// A band of `band` output rows needs (band−1)·stride + K input rows
	// of sections, each ow·(gs+1) words including the sums. (The AVX2
	// path's pixel-major rows are smaller; it keeps the same bands.)
	band := 1
	if rmax := bandInt8Budget / (ow * (gs + 1)); rmax > spec.K {
		band = (rmax-spec.K)/spec.Stride + 1
	}
	if band > oh {
		band = oh
	}
	numBands := (oh + band - 1) / band
	a := convInt8Args{
		xq: xq, scales: scales, bias: bias, out: out.Data,
		c: c, h: h, wd: wd, spec: spec, relu: relu,
		oh: oh, ow: ow, band: band, g: g, gs: gs, numBands: numBands,
	}
	if swarGroup*g > swarMaxK {
		panic("tensor: int8 GEMM reduction too large")
	}
	if useAVX2 {
		a.chunks = (secLen + int8Chunk - 1) / int8Chunk
		nb4 := (spec.OutC + 3) / 4
		wBuf := getScratchInt8(nb4 * spec.K * a.chunks * 4 * int8Chunk * 2)
		sbBuf := getScratch(nb4 * 8)
		a.w16, a.sb = *wBuf, *sbBuf
		packWeightsInt8AVX2(wq, scales, bias, c, spec, a.chunks, a.w16, a.sb)
		runConvInt8(a, n)
		putScratch(sbBuf)
		putScratchInt8(wBuf)
		return out
	}
	// Permute each weight row from the storage order ch → ky → kx to the
	// section order ky → ch → kx, then pack once per call into the
	// blocked-interleaved layout shared by every band and batch element:
	// [OutC×g packed rows][OutC row sums]. Both passes are noise next to
	// the GEMM.
	permBuf := getScratchInt8(spec.OutC * colRows)
	perm := *permBuf
	for oc := 0; oc < spec.OutC; oc++ {
		src := wq[oc*colRows : (oc+1)*colRows]
		dst := perm[oc*colRows : (oc+1)*colRows]
		di := 0
		for ky := 0; ky < spec.K; ky++ {
			for ch := 0; ch < c; ch++ {
				base := ch*spec.K*spec.K + ky*spec.K
				for kx := 0; kx < spec.K; kx++ {
					dst[di] = src[base+kx]
					di++
				}
			}
		}
	}
	wBuf := getScratchUint64(spec.OutC*g + spec.OutC)
	a.wp = (*wBuf)[:spec.OutC*g]
	a.wsum = (*wBuf)[spec.OutC*g:]
	packInt8RowsBlocked(perm, spec.OutC, secLen, spec.K, a.wp, a.wsum)
	putScratchInt8(permBuf)
	runConvInt8(a, n)
	putScratchUint64(wBuf)
	return out
}

// runConvInt8 executes every band of every batch element: closure-free
// and serial at GOMAXPROCS 1 (zero heap allocations, the steady-state
// inference contract), over the shared worker pool otherwise.
func runConvInt8(a convInt8Args, n int) {
	if runtime.GOMAXPROCS(0) <= 1 {
		for i := 0; i < n; i++ {
			convInt8Bands(a, i, 0, a.numBands)
		}
		return
	}
	// The closures capture a branch-local copy so `a` itself never
	// escapes and the serial path above stays allocation-free.
	ap := a
	if n == 1 {
		parallelFor(ap.numBands, func(lo, hi int) { convInt8Bands(ap, 0, lo, hi) })
		return
	}
	parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			convInt8Bands(ap, i, 0, ap.numBands)
		}
	})
}

// convInt8Args carries the precomputed geometry of one Conv2DInferInt8
// call so band execution needs no closures (a by-value struct keeps the
// serial path allocation-free).
type convInt8Args struct {
	xq           []int8
	wp, wsum     []uint64  // portable path: SWAR-packed weights
	w16          []int8    // AVX2 path: widened weights (packWeightsInt8AVX2)
	sb           []float32 // AVX2 path: per-block scales and biases
	chunks       int       // AVX2 path: 16-byte chunks per kernel row
	scales, bias []float32
	out          []float32
	c, h, wd     int
	spec         ConvSpec
	relu         bool
	oh, ow       int
	band         int
	g, gs        int
	numBands     int
}

// convInt8Bands runs output-row bands [lo, hi) of batch element i:
// packSectionsInt8 over the band's input rows into pooled scratch (the
// transposed layout makes each output pixel's record one contiguous
// K·gs-word slice), then the interleaved weight blocks against each
// record with the fused requantize epilogue. Adjacent bands recompute
// their shared boundary sections — duplicated work, identical values,
// so the split stays bit-deterministic.
func convInt8Bands(a convInt8Args, i, lo, hi int) {
	if a.w16 != nil {
		convInt8BandsAVX2(a, i, lo, hi)
		return
	}
	planeIn := a.c * a.h * a.wd
	planeOut := a.spec.OutC * a.oh * a.ow
	xi := a.xq[i*planeIn : (i+1)*planeIn]
	oi := a.out[i*planeOut : (i+1)*planeOut]
	k, s, p := a.spec.K, a.spec.Stride, a.spec.Pad
	g, gs, ow := a.g, a.gs, a.ow
	outC := a.spec.OutC
	nb4 := outC / 4
	ohow := a.oh * ow
	corr := int32(swarBias * swarBias * g * swarGroup)
	maxR := (a.band-1)*s + k
	secBuf := getScratchUint64(maxR*ow*gs + maxR*ow)
	for bi := lo; bi < hi; bi++ {
		oy0 := bi * a.band
		oy1 := oy0 + a.band
		if oy1 > a.oh {
			oy1 = a.oh
		}
		iy0 := oy0*s - p
		nr := (oy1-1-oy0)*s + k
		secs := (*secBuf)[:nr*ow*gs]
		ssum := (*secBuf)[maxR*ow*gs : maxR*ow*gs+nr*ow]
		packSectionsInt8(xi, a.c, a.h, a.wd, a.spec, iy0, iy0+nr, secs, ssum)
		for oy := oy0; oy < oy1; oy++ {
			row0 := oy*s - p - iy0
			outRow := oy * ow
			for ox := 0; ox < ow; ox++ {
				base := ox*nr + row0
				rec := secs[base*gs : (base+k)*gs]
				var rsum uint64
				for ky := 0; ky < k; ky++ {
					rsum += ssum[base+ky]
				}
				rterm := swarBias * int32(rsum)
				outIdx := outRow + ox
				for b := 0; b < nb4; b++ {
					d0, d1, d2, d3 := swarDotRows4(a.wp[b*4*g:(b+1)*4*g], rec)
					i0 := b * 4
					var b0, b1, b2, b3 float32
					if a.bias != nil {
						b0, b1, b2, b3 = a.bias[i0], a.bias[i0+1], a.bias[i0+2], a.bias[i0+3]
					}
					oi[i0*ohow+outIdx] = requantInt8(int32(d0)+corr-swarBias*int32(a.wsum[i0])-rterm, a.scales[i0], b0, a.relu)
					oi[(i0+1)*ohow+outIdx] = requantInt8(int32(d1)+corr-swarBias*int32(a.wsum[i0+1])-rterm, a.scales[i0+1], b1, a.relu)
					oi[(i0+2)*ohow+outIdx] = requantInt8(int32(d2)+corr-swarBias*int32(a.wsum[i0+2])-rterm, a.scales[i0+2], b2, a.relu)
					oi[(i0+3)*ohow+outIdx] = requantInt8(int32(d3)+corr-swarBias*int32(a.wsum[i0+3])-rterm, a.scales[i0+3], b3, a.relu)
				}
				for oc := nb4 * 4; oc < outC; oc++ {
					wrow := a.wp[nb4*4*g+(oc-nb4*4)*g : nb4*4*g+(oc-nb4*4+1)*g]
					d := swarDotRow1(wrow, rec)
					var bo float32
					if a.bias != nil {
						bo = a.bias[oc]
					}
					oi[oc*ohow+outIdx] = requantInt8(int32(d)+corr-swarBias*int32(a.wsum[oc])-rterm, a.scales[oc], bo, a.relu)
				}
			}
		}
	}
	putScratchUint64(secBuf)
}

// The AVX2 int8 path keeps the band structure but not the packing: a
// band's input rows are laid out pixel-major (row, x, channel) with the
// zero padding materialized, so the K·c elements kernel row ky
// contributes to an output pixel are one contiguous run starting at
// that pixel — adjacent pixels' runs overlap instead of being copied
// out K times. Weights take the matching ky → kx → ch order, each
// kernel row zero-padded to whole 16-element chunks; a chunk that
// overhangs its run multiplies whatever bytes follow by zero, which is
// exact in integers.

// int8Chunk is how many int8 elements one VPMOVSXBW/VPMADDWD step of
// convRowInt8AVX2 consumes.
const int8Chunk = 16

// packWeightsInt8AVX2 lays the quantized weights (OutC, InC·K·K) out
// for convRowInt8AVX2: output channels in blocks of four (the last
// padded with zero rows), and per block and chunk four rows of sixteen
// little-endian int16 — stored as byte pairs in the int8 arena, which
// only the assembly reads back. sb receives each block's four scales
// followed by its four biases.
func packWeightsInt8AVX2(wq []int8, scales, bias []float32, c int, spec ConvSpec, chunks int, w16 []int8, sb []float32) {
	k := spec.K
	clear(w16)
	clear(sb)
	for oc := 0; oc < spec.OutC; oc++ {
		src := wq[oc*c*k*k : (oc+1)*c*k*k]
		b, j := oc/4, oc%4
		sb[b*8+j] = scales[oc]
		if bias != nil {
			sb[b*8+4+j] = bias[oc]
		}
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for ch := 0; ch < c; ch++ {
					e := kx*c + ch
					t, l := e/int8Chunk, e%int8Chunk
					o := ((((b*k+ky)*chunks+t)*4+j)*int8Chunk + l) * 2
					v := src[(ch*k+ky)*k+kx]
					w16[o], w16[o+1] = v, v>>7
				}
			}
		}
	}
}

// packRowsInt8HWC writes input rows [iy0, iy1) of the planar quantized
// input xq (C,H,W) pixel-major into dst, each row (w+2·pad)·c bytes
// with pad zero pixels either side; rows outside [0, h) are all zero.
func packRowsInt8HWC(xq []int8, c, h, w, pad, iy0, iy1 int, dst []int8) {
	rowBytes := (w + 2*pad) * c
	for iy := iy0; iy < iy1; iy++ {
		row := dst[(iy-iy0)*rowBytes : (iy-iy0+1)*rowBytes]
		if iy < 0 || iy >= h {
			clear(row)
			continue
		}
		clear(row[:pad*c])
		clear(row[(pad+w)*c:])
		// Four channels per pass: the four bytes of a pixel land in one
		// store-buffer line, and the loop overhead is shared.
		ch := 0
		for ; ch+4 <= c; ch += 4 {
			s0 := xq[(ch*h+iy)*w : (ch*h+iy+1)*w]
			s1 := xq[((ch+1)*h+iy)*w : ((ch+1)*h+iy+1)*w][:len(s0)]
			s2 := xq[((ch+2)*h+iy)*w : ((ch+2)*h+iy+1)*w][:len(s0)]
			s3 := xq[((ch+3)*h+iy)*w : ((ch+3)*h+iy+1)*w][:len(s0)]
			d := row[pad*c+ch:]
			for ix, v := range s0 {
				q := (*[4]int8)(d[ix*c:])
				q[0], q[1], q[2], q[3] = v, s1[ix], s2[ix], s3[ix]
			}
		}
		for ; ch < c; ch++ {
			src := xq[(ch*h+iy)*w : (ch*h+iy+1)*w]
			di := pad*c + ch
			for _, v := range src {
				row[di] = v
				di += c
			}
		}
	}
}

// convInt8BandsAVX2 is convInt8Bands on the AVX2 path: lay the band's
// input rows out pixel-major, then one convRowInt8AVX2 call per output
// row computes every output channel with the requantize epilogue fused.
func convInt8BandsAVX2(a convInt8Args, i, lo, hi int) {
	planeIn := a.c * a.h * a.wd
	planeOut := a.spec.OutC * a.oh * a.ow
	xi := a.xq[i*planeIn : (i+1)*planeIn]
	oi := a.out[i*planeOut : (i+1)*planeOut]
	k, s, p := a.spec.K, a.spec.Stride, a.spec.Pad
	rowBytes := (a.wd + 2*p) * a.c
	nb4 := (a.spec.OutC + 3) / 4
	relu := 0
	if a.relu {
		relu = 1
	}
	maxR := (a.band-1)*s + k
	// One chunk of slack: the last pixel's last chunk may overhang.
	rowsBuf := getScratchInt8(maxR*rowBytes + int8Chunk)
	rows := *rowsBuf
	for bi := lo; bi < hi; bi++ {
		oy0 := bi * a.band
		oy1 := min(oy0+a.band, a.oh)
		iy0 := oy0*s - p
		nr := (oy1-1-oy0)*s + k
		packRowsInt8HWC(xi, a.c, a.h, a.wd, p, iy0, iy0+nr, rows[:nr*rowBytes])
		for oy := oy0; oy < oy1; oy++ {
			convRowInt8AVX2(&rows[(oy-oy0)*s*rowBytes], rowBytes, s*a.c, k, a.chunks,
				&a.w16[0], &a.sb[0], nb4, &oi[oy*a.ow], a.oh*a.ow, a.ow, a.spec.OutC, relu)
		}
	}
	putScratchInt8(rowsBuf)
}
