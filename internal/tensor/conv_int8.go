package tensor

import (
	"encoding/binary"
	"runtime"
	"sync"
)

// Int8Map is the int8 inference path's activation map: one image's
// quantized activations, padded, pixel-major and offset to unsigned.
// Channel ch of pixel (y, x) is the byte x_q+128 (x_q the int8 value) at
// row top+pad+y, column pad+x; channels are padded to a multiple of four
// (c4) and the image is ringed by pad pixels, every padding byte 128 —
// int8 zero. A pixel's kernel-row window is then one contiguous run of
// K·c4 bytes in every lane's layout, so no convolution packs, pads or
// re-lays its input, and one buffer serves a whole pass: Quantize fills
// it from a float32 map, Conv2DInt8Map reads it, and Conv2DInt8MapReLU
// replaces it in place with its own output quantized for the next
// convolution. The zero value is ready to use; the buffer grows to the
// largest image seen and is reused.
type Int8Map struct {
	buf   []byte
	c, c4 int // channels, and the channel stride (c rounded up to 4)
	h, w  int
	pad   int // ring width in pixels
	top   int // buffer row of the first ring row: 1, or 0 once shifted
}

// Bytes reports the memory the map holds.
func (m *Int8Map) Bytes() int { return cap(m.buf) }

func (m *Int8Map) rowBytes() int { return (m.w + 2*m.pad) * m.c4 }

// pixels returns the w·c4 bytes of image row y.
func (m *Int8Map) pixels(y int) []byte {
	off := (m.top+m.pad+y)*m.rowBytes() + m.pad*m.c4
	return m.buf[off : off+m.w*m.c4]
}

// reset shapes the map for a c×h×w image with a pad ring and writes
// int8 zero to the ring. The buffer holds one spare row above the ring
// (top = 1), for Conv2DInt8MapReLU to shift the image into, and slack
// below it for the kernels' reads past the last pixel: a short last
// tile of eight pixels, or the overhang of a 16-byte chunk.
func (m *Int8Map) reset(c, h, w, pad int) {
	m.c, m.c4, m.h, m.w, m.pad, m.top = c, (c+3)&^3, h, w, pad, 1
	rb := m.rowBytes()
	n := (h+2*pad+1)*rb + 8*m.c4
	if cap(m.buf) < n {
		m.buf = make([]byte, n)
	}
	m.buf = m.buf[:n]
	fillInt8Zero(m.buf[:(1+pad)*rb])
	fillInt8Zero(m.buf[(1+pad+h)*rb:])
	for y := 0; y < h; y++ {
		row := m.buf[(1+pad+y)*rb : (2+pad+y)*rb]
		fillInt8Zero(row[:pad*m.c4])
		fillInt8Zero(row[(pad+w)*m.c4:])
	}
}

// fillInt8Zero sets every byte of b to 128, the map's int8 zero.
func fillInt8Zero(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = 0x80
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// Quantize lays the planar float32 image src (c, h, w) out in the map,
// ringed by pad pixels, each element quantized with multiplier inv by
// QuantizeInt8Into's expression — one sweep, no planar int8 copy.
func (m *Int8Map) Quantize(src []float32, c, h, w, pad int, inv float32) {
	if len(src) != c*h*w {
		panic("tensor: Int8Map.Quantize length mismatch")
	}
	m.reset(c, h, w, pad)
	if w == 0 {
		return
	}
	if useVNNI {
		for y := 0; y < h; y++ {
			quantizeMapRowAVX512(&m.pixels(y)[0], &src[y*w], h*w, c, m.c4, w, inv)
		}
		return
	}
	qBuf := scratchI8.get(c * w)
	q := *qBuf
	for y := 0; y < h; y++ {
		for ch := 0; ch < c; ch++ {
			QuantizeInt8Into(q[ch*w:(ch+1)*w], src[(ch*h+y)*w:(ch*h+y+1)*w], inv)
		}
		layRowInt8(m.pixels(y), q, w, c, m.c4, w)
	}
	scratchI8.put(qBuf)
}

// layInt8 lays the planar int8 image src (c, h, w) out in the map.
func (m *Int8Map) layInt8(src []int8, c, h, w, pad int) {
	m.reset(c, h, w, pad)
	for y := 0; y < h; y++ {
		layRowInt8(m.pixels(y), src[y*w:], h*w, c, m.c4, w)
	}
}

// layRowInt8 writes one row of w pixels into dst pixel-major with
// channel stride c4, offset by 128: channel ch of pixel x comes from
// src[ch·chStride + x], and channels c..c4 are int8 zero.
func layRowInt8(dst []byte, src []int8, chStride, c, c4, w int) {
	for ch := 0; ch < c4; ch += 4 {
		if ch+4 <= c {
			s0 := src[ch*chStride : ch*chStride+w]
			s1 := src[(ch+1)*chStride:][:len(s0)]
			s2 := src[(ch+2)*chStride:][:len(s0)]
			s3 := src[(ch+3)*chStride:][:len(s0)]
			for x, v := range s0 {
				u := uint32(uint8(v)) | uint32(uint8(s1[x]))<<8 | uint32(uint8(s2[x]))<<16 | uint32(uint8(s3[x]))<<24
				binary.LittleEndian.PutUint32(dst[x*c4+ch:], u^0x80808080)
			}
			continue
		}
		for x := 0; x < w; x++ {
			var u uint32
			for j := 0; j < 4 && ch+j < c; j++ {
				u |= uint32(uint8(src[(ch+j)*chStride+x])) << (8 * j)
			}
			binary.LittleEndian.PutUint32(dst[x*c4+ch:], u^0x80808080)
		}
	}
}

// The int8 convolution runs on one of three lanes, chosen per call from
// CPUID (useVNNI, useAVX2): the VNNI lane (convRowInt8VNNI, stride one
// only), the AVX2 lane (convRowInt8AVX2) and the portable SWAR lane
// (rowPortable). All three read the same map and compute the exact
// int32 sum Σx·w before one shared requantize expression, so their
// outputs are bit-identical; the slower two are the fallback and the
// oracle of the faster.
const (
	lanePortable = iota
	laneAVX2
	laneVNNI
)

// int8Lane is the lane a convolution of spec runs on. Only the stride
// can send a VNNI host to the AVX2 lane: the VNNI tile holds any
// reduction the int32 contract allows (swarMaxK), since its sums wrap in
// int32 exactly as the offset correction does.
func int8Lane(spec ConvSpec) int {
	switch {
	case useVNNI && spec.Stride == 1:
		return laneVNNI
	case useAVX2:
		return laneAVX2
	}
	return lanePortable
}

// int8Chunk is how many bytes one VPMOVZXBW/VPMADDWD step of
// convRowInt8AVX2 consumes.
const int8Chunk = 16

// mapConv is one convolution over an Int8Map with its weights packed for
// the lane that runs it. It holds no closures, so the serial path
// allocates nothing.
type mapConv struct {
	src          []byte // the map from its first ring row on
	rowBytes, c4 int
	spec         ConvSpec
	oh, ow       int
	relu         bool
	lane         int
	blocks       int       // VNNI, AVX2: output-channel blocks of 16, 4
	pairs        int       // VNNI: pairs of 4-byte groups per kernel row
	chunks       int       // AVX2: 16-byte chunks per kernel row
	w            []int8    // VNNI, AVX2: packed weights and corrections
	sb           []float32 // VNNI, AVX2: per-block scales, then biases
	wp, wsum     []uint64  // portable: SWAR-packed weights, operand sums
	g, gs        int       // portable: words per record, per section
	scales, bias []float32

	wBuf  *[]int8
	sbBuf *[]float32
	wpBuf *[]uint64
}

// newMapConv checks a convolution against its map and packs its weights
// (OutC, InC·K·K) into pooled scratch; release returns it.
func newMapConv(m *Int8Map, wq []int8, scales, bias []float32, spec ConvSpec, relu bool) mapConv {
	if spec.InC != m.c || spec.Pad != m.pad {
		panic("tensor: int8 convolution does not match its activation map")
	}
	k := spec.K
	if len(wq) != spec.OutC*spec.InC*k*k {
		panic("tensor: int8 convolution weight length mismatch")
	}
	if len(scales) != spec.OutC {
		panic("tensor: int8 convolution scale length mismatch")
	}
	secLen := k * m.c4
	if swarGroup*k*packedGroups(secLen) > swarMaxK {
		panic("tensor: int8 GEMM reduction too large")
	}
	oh, ow := spec.OutSize(m.h, m.w)
	a := mapConv{
		src: m.buf[m.top*m.rowBytes():], rowBytes: m.rowBytes(), c4: m.c4,
		spec: spec, oh: oh, ow: ow, relu: relu, lane: int8Lane(spec),
		scales: scales, bias: bias,
	}
	switch a.lane {
	case laneVNNI:
		a.pairs = (secLen/4 + 1) / 2
		a.blocks = (spec.OutC + 15) / 16
		a.wBuf = scratchI8.get(a.blocks * (64 + k*a.pairs*128))
		a.sbBuf = scratchF32.get(a.blocks * 32)
		a.w, a.sb = *a.wBuf, *a.sbBuf
		packWeightsInt8VNNI(wq, scales, bias, m.c, m.c4, spec, 2*a.pairs, a.w, a.sb)
	case laneAVX2:
		a.chunks = (secLen + int8Chunk - 1) / int8Chunk
		a.blocks = (spec.OutC + 3) / 4
		a.wBuf = scratchI8.get(a.blocks * (k*a.chunks*4*int8Chunk*2 + 16))
		a.sbBuf = scratchF32.get(a.blocks * 8)
		a.w, a.sb = *a.wBuf, *a.sbBuf
		packWeightsInt8AVX2(wq, scales, bias, m.c, m.c4, spec, a.chunks, a.w, a.sb)
	default:
		// Rows in the window's order ky → kx → channel (zero for padding
		// channels), one section per kernel row, packed once per call into
		// the blocked-interleaved layout: [OutC×g words][OutC sums].
		a.gs = packedGroups(secLen)
		a.g = k * a.gs
		permBuf := scratchI8.get(spec.OutC * k * secLen)
		perm := *permBuf
		clear(perm)
		for oc := 0; oc < spec.OutC; oc++ {
			for ch := 0; ch < m.c; ch++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						perm[((oc*k+ky)*k+kx)*m.c4+ch] = wq[((oc*m.c+ch)*k+ky)*k+kx]
					}
				}
			}
		}
		a.wpBuf = scratchU64.get(spec.OutC*a.g + spec.OutC)
		a.wp, a.wsum = (*a.wpBuf)[:spec.OutC*a.g], (*a.wpBuf)[spec.OutC*a.g:]
		packInt8RowsBlocked(perm, spec.OutC, secLen, k, a.wp, a.wsum)
		scratchI8.put(permBuf)
	}
	return a
}

func (a *mapConv) release() {
	if a.wBuf != nil {
		scratchI8.put(a.wBuf)
		scratchF32.put(a.sbBuf)
	}
	if a.wpBuf != nil {
		scratchU64.put(a.wpBuf)
	}
}

// packWeightsInt8VNNI lays the weights out for convRowInt8VNNI: output
// channels in blocks of sixteen (the last padded with zero rows); per
// block sixteen int32 128·Σw, then per kernel row and 4-byte group
// sixteen lanes of four weights — group t of kernel row ky covers window
// bytes [4t, 4t+4), i.e. kernel column 4t / c4 and channels 4t mod c4
// on, zero for padding channels. groups, the groups per kernel row, is
// even (the kernel takes them in pairs): a last group past the window
// has zero weights. sb receives each block's sixteen scales and then
// its sixteen biases.
func packWeightsInt8VNNI(wq []int8, scales, bias []float32, c, c4 int, spec ConvSpec, groups int, w []int8, sb []float32) {
	k := spec.K
	blockBytes := 64 + k*groups*64
	clear(w)
	clear(sb)
	for oc := 0; oc < spec.OutC; oc++ {
		b, lane := oc/16, oc%16
		blk := w[b*blockBytes : (b+1)*blockBytes]
		var sum int32
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for ch := 0; ch < c; ch++ {
					v := wq[((oc*c+ch)*k+ky)*k+kx]
					e := kx*c4 + ch
					blk[64+((ky*groups+e/4)*16+lane)*4+e%4] = v
					sum += int32(v)
				}
			}
		}
		putInt32(blk[4*lane:], 128*sum)
		sb[b*32+lane] = scales[oc]
		if bias != nil {
			sb[b*32+16+lane] = bias[oc]
		}
	}
}

// packWeightsInt8AVX2 lays the weights out for convRowInt8AVX2: output
// channels in blocks of four (the last padded with zero rows); per block
// and chunk four rows of sixteen little-endian int16 — stored as byte
// pairs in the int8 arena, which only the assembly reads back — with
// window element e = kx·c4 + ch of kernel row ky in chunk e/16, then the
// block's four int32 128·Σw. sb receives each block's four scales
// followed by its four biases.
func packWeightsInt8AVX2(wq []int8, scales, bias []float32, c, c4 int, spec ConvSpec, chunks int, w []int8, sb []float32) {
	k := spec.K
	blockBytes := k*chunks*4*int8Chunk*2 + 16
	clear(w)
	clear(sb)
	for oc := 0; oc < spec.OutC; oc++ {
		b, j := oc/4, oc%4
		blk := w[b*blockBytes : (b+1)*blockBytes]
		sb[b*8+j] = scales[oc]
		if bias != nil {
			sb[b*8+4+j] = bias[oc]
		}
		var sum int32
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for ch := 0; ch < c; ch++ {
					e := kx*c4 + ch
					o := (((ky*chunks+e/int8Chunk)*4+j)*int8Chunk + e%int8Chunk) * 2
					v := wq[((oc*c+ch)*k+ky)*k+kx]
					blk[o], blk[o+1] = v, v>>7
					sum += int32(v)
				}
			}
		}
		putInt32(blk[blockBytes-16+4*j:], 128*sum)
	}
}

// putInt32 stores v little-endian in the first four bytes of b.
func putInt32(b []int8, v int32) {
	b[0], b[1], b[2], b[3] = int8(v), int8(v>>8), int8(v>>16), int8(v>>24)
}

// row computes output row oy: channel oc's pixels at out[oc·planeStride:].
// secs is the portable lane's scratch (secWords long), nil otherwise.
func (a *mapConv) row(oy int, out []float32, planeStride int, secs []uint64) {
	src := a.src[oy*a.spec.Stride*a.rowBytes:]
	relu := 0
	if a.relu {
		relu = 1
	}
	switch a.lane {
	case laneVNNI:
		convRowInt8VNNI(&src[0], a.rowBytes, a.c4, a.spec.K, a.pairs, &a.w[0], &a.sb[0], a.blocks,
			&out[0], planeStride, a.ow, a.spec.OutC, relu)
	case laneAVX2:
		convRowInt8AVX2(&src[0], a.rowBytes, a.spec.Stride*a.c4, a.spec.K, a.chunks, &a.w[0], &a.sb[0], a.blocks,
			&out[0], planeStride, a.ow, a.spec.OutC, relu)
	default:
		a.rowPortable(src, out, planeStride, secs)
	}
}

// secWords is the portable lane's per-row scratch: every output pixel's
// record (K sections of gs words) and one operand sum per section.
func (a *mapConv) secWords() int { return a.ow * (a.g + a.spec.K) }

// rowPortable is row on the SWAR GEMM of kernels_int8.go. The map's
// bytes already are the SWAR operands (value+128, padding 128), so each
// pixel's record is its K window rows packed three bytes to a word, and
// the bias identity unbiases the dot exactly.
func (a *mapConv) rowPortable(src []byte, out []float32, planeStride int, secs []uint64) {
	k, s, c4, g, gs, ow := a.spec.K, a.spec.Stride, a.c4, a.g, a.gs, a.ow
	recs, sums := secs[:ow*g], secs[ow*g:ow*(g+k)]
	for ky := 0; ky < k; ky++ {
		row := src[ky*a.rowBytes:]
		for ox := 0; ox < ow; ox++ {
			si := ox*k + ky
			sums[si] = packSectionInt8(row[ox*s*c4:ox*s*c4+k*c4], recs[si*gs:(si+1)*gs])
		}
	}
	outC := a.spec.OutC
	nb4 := outC / 4
	corr := int32(swarBias * swarBias * g * swarGroup)
	for ox := 0; ox < ow; ox++ {
		rec := recs[ox*g : (ox+1)*g]
		var rsum uint64
		for _, v := range sums[ox*k : (ox+1)*k] {
			rsum += v
		}
		rterm := swarBias * int32(rsum)
		for b := 0; b < nb4; b++ {
			d0, d1, d2, d3 := swarDotRows4(a.wp[b*4*g:(b+1)*4*g], rec)
			i0 := b * 4
			var b0, b1, b2, b3 float32
			if a.bias != nil {
				b0, b1, b2, b3 = a.bias[i0], a.bias[i0+1], a.bias[i0+2], a.bias[i0+3]
			}
			out[i0*planeStride+ox] = requantInt8(int32(d0)+corr-swarBias*int32(a.wsum[i0])-rterm, a.scales[i0], b0, a.relu)
			out[(i0+1)*planeStride+ox] = requantInt8(int32(d1)+corr-swarBias*int32(a.wsum[i0+1])-rterm, a.scales[i0+1], b1, a.relu)
			out[(i0+2)*planeStride+ox] = requantInt8(int32(d2)+corr-swarBias*int32(a.wsum[i0+2])-rterm, a.scales[i0+2], b2, a.relu)
			out[(i0+3)*planeStride+ox] = requantInt8(int32(d3)+corr-swarBias*int32(a.wsum[i0+3])-rterm, a.scales[i0+3], b3, a.relu)
		}
		for oc := nb4 * 4; oc < outC; oc++ {
			off := nb4*4*g + (oc-nb4*4)*g
			d := swarDotRow1(a.wp[off:off+g], rec)
			var bo float32
			if a.bias != nil {
				bo = a.bias[oc]
			}
			out[oc*planeStride+ox] = requantInt8(int32(d)+corr-swarBias*int32(a.wsum[oc])-rterm, a.scales[oc], bo, a.relu)
		}
	}
}

// packSectionInt8 packs one window row into high-lane words of three
// bytes, the last padded with the bias (int8 zero), and returns the sum
// of its padded operands.
func packSectionInt8(sec []byte, d []uint64) uint64 {
	var sum uint64
	n := len(sec) / swarGroup
	for t := 0; t < n; t++ {
		v0, v1, v2 := uint64(sec[3*t]), uint64(sec[3*t+1]), uint64(sec[3*t+2])
		sum += v0 + v1 + v2
		d[t] = v0<<swarDiagShift | v1<<(swarDiagShift-swarLane) | v2<<(swarDiagShift-2*swarLane)
	}
	if n < len(d) {
		v := [swarGroup]uint64{swarBias, swarBias, swarBias}
		for q, e := range sec[swarGroup*n:] {
			v[q] = uint64(e)
		}
		sum += v[0] + v[1] + v[2]
		d[n] = v[0]<<swarDiagShift | v[1]<<(swarDiagShift-swarLane) | v[2]<<(swarDiagShift-2*swarLane)
	}
	return sum
}

// rows computes output rows [lo, hi) into the planar out.
func (a *mapConv) rows(lo, hi int, out []float32) {
	var secs []uint64
	var secBuf *[]uint64
	if a.lane == lanePortable {
		secBuf = scratchU64.get(a.secWords())
		secs = *secBuf
	}
	for oy := lo; oy < hi; oy++ {
		a.row(oy, out[oy*a.ow:], a.oh*a.ow, secs)
	}
	if secBuf != nil {
		scratchU64.put(secBuf)
	}
}

// Conv2DInt8Map convolves the activation map m with quantized weights
// wq (OutC, InC·K·K), int8×int8 → exact int32 accumulation, and writes
// the planar float32 result (OutC, oh, ow) into out through the fused
// epilogue requantInt8 — ·scales[oc] (weight scale × activation scale),
// + bias[oc] (nil for none), optional ReLU. Output rows are split over
// the shared worker pool (serially and allocation-free at GOMAXPROCS 1);
// every output element is computed whole by one lane, so results are
// bit-identical across worker counts, lanes and the naive reference.
func Conv2DInt8Map(m *Int8Map, wq []int8, scales, bias []float32, spec ConvSpec, relu bool, out []float32) {
	a := newMapConv(m, wq, scales, bias, spec, relu)
	defer a.release()
	if len(out) != spec.OutC*a.oh*a.ow {
		panic("tensor: Conv2DInt8Map output length mismatch")
	}
	if len(out) == 0 {
		return
	}
	if runtime.GOMAXPROCS(0) <= 1 {
		a.rows(0, a.oh, out)
	} else {
		// The closure captures a branch-local copy so `a` never escapes
		// and the serial path above stays allocation-free.
		ap := a
		parallelFor(a.oh, func(lo, hi int) { ap.rows(lo, hi, out) })
	}
}

// Conv2DInt8MapReLU runs a ReLU convolution over m and leaves in m, in
// place, its output as the next convolution's input: relu(conv(m))
// quantized with multiplier inv by QuantizeInt8Into's expression, the
// float32 value never stored. The convolution must keep the image's
// geometry — InC == OutC, K 3, stride 1, pad 1 — and m must have been
// filled since it was last shifted.
//
// In place works row by row: output row y reads input rows y−1..y+1 and
// is written over the buffer row input row y−1 occupied — dead by then
// for every later output row — so the image moves up one buffer row
// (into the spare row reset reserved) and nothing else is needed. With
// the rows split into bands on the worker pool, a band's first two
// output rows would land on rows the band above still reads; they are
// held back and copied in once every band is done.
func Conv2DInt8MapReLU(m *Int8Map, wq []int8, scales, bias []float32, spec ConvSpec, inv float32) {
	if spec.InC != spec.OutC || spec.K != 3 || spec.Stride != 1 || spec.Pad != 1 {
		panic("tensor: Conv2DInt8MapReLU needs a geometry-preserving 3×3 convolution")
	}
	if m.top != 1 {
		panic("tensor: Conv2DInt8MapReLU on a map it already shifted")
	}
	a := newMapConv(m, wq, scales, bias, spec, true)
	defer a.release()
	m.top = 0      // a.src still reads the unshifted rows
	const held = 2 // output rows per band written last
	rowLen := m.w * m.c4
	bands := 1
	if procs := runtime.GOMAXPROCS(0); procs > 1 && a.oh > 1 {
		bands = min(procs, a.oh)
	}
	switch {
	case rowLen == 0:
	case bands == 1:
		a.bandToMap(m, 0, a.oh, inv, nil)
	default:
		heldBuf := scratchU8.get((bands - 1) * held * rowLen)
		hold := *heldBuf
		fillInt8Zero(hold)
		ap := a
		parallelFor(bands, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				var h []byte
				if b > 0 {
					h = hold[(b-1)*held*rowLen : b*held*rowLen]
				}
				ap.bandToMap(m, b*ap.oh/bands, (b+1)*ap.oh/bands, inv, h)
			}
		})
		for b := 1; b < bands; b++ {
			y0 := b * a.oh / bands
			for j := 0; j < held && y0+j < (b+1)*a.oh/bands; j++ {
				copy(m.pixels(y0+j), hold[((b-1)*held+j)*rowLen:])
			}
		}
		scratchU8.put(heldBuf)
	}
	rb := m.rowBytes()
	fillInt8Zero(m.buf[(m.pad+m.h)*rb : (m.pad+m.h+1)*rb]) // the new bottom ring
}

// bandToMap computes output rows [lo, hi) of an in-place convolution:
// each into a row buffer (or, for the band's first rows, into hold),
// then over its destination row. Padding-channel bytes of the buffers
// start and stay int8 zero: no lane writes them.
func (a *mapConv) bandToMap(m *Int8Map, lo, hi int, inv float32, hold []byte) {
	rowLen := a.ow * a.c4
	tmpBuf := scratchU8.get(rowLen)
	tmp := *tmpBuf
	fillInt8Zero(tmp)
	var f []float32
	var q []int8
	var secs []uint64
	var fBuf *[]float32
	var qBuf *[]int8
	var secBuf *[]uint64
	if a.lane != laneVNNI {
		fBuf, qBuf = scratchF32.get(a.spec.OutC*a.ow), scratchI8.get(a.spec.OutC*a.ow)
		f, q = *fBuf, *qBuf
		if a.lane == lanePortable {
			secBuf = scratchU64.get(a.secWords())
			secs = *secBuf
		}
	}
	for y := lo; y < hi; y++ {
		dst, direct := tmp, true
		if j := y - lo; j*rowLen < len(hold) {
			dst, direct = hold[j*rowLen:(j+1)*rowLen], false
		}
		if a.lane == laneVNNI {
			convRowInt8VNNIMap(&a.src[y*a.rowBytes], a.rowBytes, a.c4, a.spec.K, a.pairs, &a.w[0], &a.sb[0], a.blocks,
				&dst[0], a.ow, a.spec.OutC, inv)
		} else {
			a.row(y, f, a.ow, secs)
			QuantizeInt8Into(q, f, inv)
			layRowInt8(dst, q, a.ow, a.spec.OutC, a.c4, a.ow)
		}
		if direct {
			copy(m.pixels(y), tmp)
		}
	}
	scratchU8.put(tmpBuf)
	if fBuf != nil {
		scratchF32.put(fBuf)
		scratchI8.put(qBuf)
	}
	if secBuf != nil {
		scratchU64.put(secBuf)
	}
}

var mapPool = sync.Pool{New: func() any { return new(Int8Map) }}

// Conv2DInferInt8 computes a batched 2-D convolution over a planar
// quantized input with int8×int8 → int32 accumulation and the fused
// requantize + bias + ReLU epilogue, writing float32 results into out
// (grown via Ensure; pass nil to allocate on first use).
//
//	xq:     (N, InC, H, W) quantized input, row-major like Tensor.Data
//	wq:     (OutC, InC·K·K) quantized weights, flattened row-major
//	scales: per-output-channel requantization multiplier (weight scale ×
//	        activation scale), applied to each finished int32 sum
//	bias:   per-output-channel float32 bias, or nil
//
// Each batch element is laid out in a pooled Int8Map and convolved by
// Conv2DInt8Map, so outputs are bit-identical across worker counts,
// lanes and the naive reference, and the serial path allocates nothing
// in steady state.
func Conv2DInferInt8(xq []int8, n, c, h, wd int, wq []int8, scales, bias []float32, spec ConvSpec, relu bool, out *Tensor) *Tensor {
	if c != spec.InC {
		panic("tensor: Conv2DInferInt8 channel mismatch")
	}
	if len(xq) != n*c*h*wd {
		panic("tensor: Conv2DInferInt8 input length mismatch")
	}
	oh, ow := spec.OutSize(h, wd)
	out = Ensure(out, n, spec.OutC, oh, ow)
	m := mapPool.Get().(*Int8Map)
	plane := spec.OutC * oh * ow
	for i := 0; i < n; i++ {
		m.layInt8(xq[i*c*h*wd:(i+1)*c*h*wd], c, h, wd, spec.Pad)
		Conv2DInt8Map(m, wq, scales, bias, spec, relu, out.Data[i*plane:(i+1)*plane])
	}
	mapPool.Put(m)
	return out
}
