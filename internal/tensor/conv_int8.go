package tensor

import (
	"encoding/binary"
	"sync"
)

// Int8Map is the int8 inference path's activation rows: quantized,
// padded, pixel-major and offset to unsigned. Channel ch of pixel x of a
// row is the byte x_q+128 (x_q the int8 value) at column pad+x; channels
// are padded to a multiple of four (c4) and each row is ringed by pad
// pixels, every padding byte 128 — int8 zero. A pixel's kernel-row
// window is then one contiguous run of K·c4 bytes in every lane's
// layout, so no convolution packs, pads or re-lays its input.
//
// The map is a ring of rows (see rows.go): row y in slot (y+pad) mod
// slots, slots [0, 2·pad) mirrored after the last, so a convolution's K
// window rows are always consecutive, one row stride apart. The buffer
// ends in slack for the kernels' reads past a window's last pixel: a
// short last AMX tile of sixteen pixels (with its last slice's few
// bytes past the window), a VNNI tile of eight, or the overhang of a
// 16-byte chunk. The zero value is empty; Reset shapes it.
type Int8Map struct {
	buf   []byte
	c, c4 int // channels, and the channel stride (c rounded up to 4)
	w     int
	pad   int // ring width in pixels
	slots int
}

// Bytes reports the memory the map holds.
func (m *Int8Map) Bytes() int { return cap(m.buf) }

func (m *Int8Map) rowBytes() int { return (m.w + 2*m.pad) * m.c4 }

// Reset shapes m to hold the last slots rows of a c-channel, w-pixel
// activation ringed by pad pixels. A reshape fills the buffer (grown if
// too small) with int8 zero; a Reset to the shape m already has keeps
// it, rows included.
func (m *Int8Map) Reset(c, w, pad, slots int) {
	if slots < 2*pad+1 {
		panic("tensor: Int8Map too shallow for a window")
	}
	c4 := (c + 3) &^ 3
	if m.c == c && m.w == w && m.pad == pad && m.slots == slots && m.buf != nil {
		return
	}
	m.c, m.c4, m.w, m.pad, m.slots = c, c4, w, pad, slots
	n := (slots+2*pad)*m.rowBytes() + 16*c4
	if cap(m.buf) < n {
		m.buf = make([]byte, n)
	}
	m.buf = m.buf[:n]
	fillInt8Zero(m.buf)
}

func (m *Int8Map) slot(y int) int { return (y + m.pad) % m.slots }

// pixels returns the w·c4 bytes of row y.
func (m *Int8Map) pixels(y int) []byte {
	off := m.slot(y)*m.rowBytes() + m.pad*m.c4
	return m.buf[off : off+m.w*m.c4]
}

// publish copies row y's slot into its mirror, if the slot has one.
func (m *Int8Map) publish(y int) {
	if s := m.slot(y); s < 2*m.pad {
		rb := m.rowBytes()
		copy(m.buf[(m.slots+s)*rb:(m.slots+s+1)*rb], m.buf[s*rb:(s+1)*rb])
	}
}

// window returns the map from the slot of row iy, a window's first, on.
func (m *Int8Map) window(iy int) []byte { return m.buf[m.slot(iy)*m.rowBytes():] }

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

// QuantizeRow writes row y from the planar float32 row src — channel
// ch's w values at src[ch·stride:] — each element quantized with
// multiplier inv by QuantizeInt8Into's expression, in one sweep, and
// publishes it.
func (m *Int8Map) QuantizeRow(y int, src []float32, stride int, inv float32) {
	if m.w == 0 {
		return
	}
	if len(src) < (m.c-1)*stride+m.w {
		panic("tensor: Int8Map.QuantizeRow source too short")
	}
	dst := m.pixels(y)
	if useAVX512 {
		quantizeMapRowAVX512(&dst[0], &src[0], stride, m.c, m.c4, m.w, inv)
	} else {
		qBuf := scratchI8.get(m.c * m.w)
		q := *qBuf
		for ch := 0; ch < m.c; ch++ {
			QuantizeInt8Into(q[ch*m.w:(ch+1)*m.w], src[ch*stride:ch*stride+m.w], inv)
		}
		layRowInt8(dst, q, m.w, m.c, m.c4, m.w)
		scratchI8.put(qBuf)
	}
	m.publish(y)
}

// ZeroRow writes row y as int8 zero (a row outside the image) and
// publishes it.
func (m *Int8Map) ZeroRow(y int) {
	rb := m.rowBytes()
	fillInt8Zero(m.buf[m.slot(y)*rb : (m.slot(y)+1)*rb])
	m.publish(y)
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

// The int8 convolution — stride 1 with a (K−1)/2 pad, the only geometry
// NewInt8ConvRows accepts — runs on one of four lanes, chosen per call
// from CPUID (useAMX, useAVX512, useAVX2): the AMX lane
// (convRowInt8AMX), the VNNI lane (convRowInt8VNNI), the AVX2 lane
// (convRowInt8AVX2) and the portable SWAR lane (rowPortable). All four
// read the same map and compute the exact int32 sum Σx·w before one
// shared requantize expression and residual add, so their outputs are
// bit-identical; the slower ones are the fallback and the oracle of the
// faster.
const (
	lanePortable = iota
	laneAVX2
	laneVNNI
	laneAMX
)

// int8Lane is the lane a convolution of spec runs on. Only a kernel
// wider than the map's slack covers can send a faster host to a slower
// lane (AMX to VNNI): the tiles hold any reduction the int32 contract
// allows (swarMaxK), since their sums wrap in int32 exactly as the
// offset correction does. The AMX lane runs the AVX-512 epilogues, so
// it needs that lane too.
func int8Lane(spec ConvSpec) int {
	switch {
	case useAMX && useAVX512 && spec.K <= 16:
		return laneAMX
	case useAVX512:
		return laneVNNI
	case useAVX2:
		return laneAVX2
	}
	return lanePortable
}

// int8Chunk is how many bytes one VPMOVZXBW/VPMADDWD step of
// convRowInt8AVX2 consumes.
const int8Chunk = 16

// mapConv is one convolution over Int8Maps of one width with its
// weights packed for the lane that runs it. It holds no closures, so the
// serial path allocates nothing.
type mapConv struct {
	c4, w        int // the input map's channel stride and width (= the output's)
	spec         ConvSpec
	relu         bool
	lane         int
	blocks       int       // AMX, VNNI, AVX2: output-channel blocks of 16, 16, 4
	pairs        int       // VNNI: pairs of 4-byte groups per kernel row
	slices       int       // AMX: slices per kernel row
	sliceBytes   int       // AMX: window bytes per slice (≤ 64)
	cfg          [64]byte  // AMX: the tile configuration
	chunks       int       // AVX2: 16-byte chunks per kernel row
	wq           []int8    // AMX, VNNI, AVX2: packed weights and corrections
	sb           []float32 // AMX, VNNI, AVX2: per-block scales, then biases
	wp, wsum     []uint64  // portable: SWAR-packed weights, operand sums
	g, gs        int       // portable: words per record, per section
	scales, bias []float32

	wBuf  *[]int8
	sbBuf *[]float32
	wpBuf *[]uint64
}

// newMapConv packs a convolution's weights (OutC, InC·K·K) into pooled
// scratch for maps w pixels wide; release returns it.
func newMapConv(wq []int8, scales, bias []float32, spec ConvSpec, w int, relu bool) mapConv {
	k := spec.K
	if len(wq) != spec.OutC*spec.InC*k*k {
		panic("tensor: int8 convolution weight length mismatch")
	}
	if len(scales) != spec.OutC {
		panic("tensor: int8 convolution scale length mismatch")
	}
	c, c4 := spec.InC, (spec.InC+3)&^3
	secLen := k * c4
	if swarGroup*k*packedGroups(secLen) > swarMaxK {
		panic("tensor: int8 GEMM reduction too large")
	}
	a := mapConv{
		c4: c4, w: w, spec: spec, relu: relu, lane: int8Lane(spec),
		scales: scales, bias: bias,
	}
	switch a.lane {
	case laneAMX:
		// Equal slices of at most 64 bytes, so one tile shape serves every
		// slice; their total passes the window by under one group per
		// slice (zero weights), which the map's slack covers for K ≤ 16.
		a.slices = (secLen + 63) / 64
		a.sliceBytes = (secLen/4 + a.slices - 1) / a.slices * 4
		groups := a.slices * a.sliceBytes / 4
		a.blocks = (spec.OutC + 15) / 16
		a.wBuf = scratchI8.get(a.blocks * (64 + k*groups*64))
		a.sbBuf = scratchF32.get(a.blocks * 32)
		a.wq, a.sb = *a.wBuf, *a.sbBuf
		packWeightsInt8VNNI(wq, scales, bias, c, c4, spec, groups, a.wq, a.sb)
		a.cfg = amxConfig(a.sliceBytes)
	case laneVNNI:
		a.pairs = (secLen/4 + 1) / 2
		a.blocks = (spec.OutC + 15) / 16
		a.wBuf = scratchI8.get(a.blocks * (64 + k*a.pairs*128))
		a.sbBuf = scratchF32.get(a.blocks * 32)
		a.wq, a.sb = *a.wBuf, *a.sbBuf
		packWeightsInt8VNNI(wq, scales, bias, c, c4, spec, 2*a.pairs, a.wq, a.sb)
	case laneAVX2:
		a.chunks = (secLen + int8Chunk - 1) / int8Chunk
		a.blocks = (spec.OutC + 3) / 4
		a.wBuf = scratchI8.get(a.blocks * (k*a.chunks*4*int8Chunk*2 + 16))
		a.sbBuf = scratchF32.get(a.blocks * 8)
		a.wq, a.sb = *a.wBuf, *a.sbBuf
		packWeightsInt8AVX2(wq, scales, bias, c, c4, spec, a.chunks, a.wq, a.sb)
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
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						perm[((oc*k+ky)*k+kx)*c4+ch] = wq[((oc*c+ch)*k+ky)*k+kx]
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

// packWeightsInt8VNNI lays the weights out for convRowInt8VNNI and
// convRowInt8AMX: output channels in blocks of sixteen (the last padded
// with zero rows); per block sixteen int32 128·Σw, then per kernel row
// and 4-byte group sixteen lanes of four weights — group t of kernel row
// ky covers window bytes [4t, 4t+4), i.e. kernel column 4t / c4 and
// channels 4t mod c4 on, zero for padding channels. groups, the groups
// per kernel row, may pass the window — the VNNI kernel takes them in
// pairs, the AMX kernel in equal slices — and a group past it has zero
// weights: a B tile is then one slice's rows of one kernel row, 64
// bytes each. sb receives each block's sixteen scales and then its
// sixteen biases.
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

// amxConfig is the tile configuration convRowInt8AMX loads (palette 1):
// C tiles 0–3 of sixteen pixels × sixteen int32 channels, A tiles 4, 5
// and 7 of sixteen pixels × sliceBytes window bytes, and B tile 6 of
// sliceBytes/4 groups × sixteen channels' four weights.
func amxConfig(sliceBytes int) (cfg [64]byte) {
	cfg[0] = 1
	for t, shape := range [8][2]int{{16, 64}, {16, 64}, {16, 64}, {16, 64},
		{16, sliceBytes}, {16, sliceBytes}, {sliceBytes / 4, 64}, {16, sliceBytes}} {
		binary.LittleEndian.PutUint16(cfg[16+2*t:], uint16(shape[1]))
		cfg[48+t] = byte(shape[0])
	}
	return cfg
}

// putInt32 stores v little-endian in the first four bytes of b.
func putInt32(b []int8, v int32) {
	b[0], b[1], b[2], b[3] = int8(v), int8(v>>8), int8(v>>16), int8(v>>24)
}

// row computes output row oy from the map m: channel oc's pixels at
// out[oc·planeStride:], each with res non-nil (laid out like out) res +
// float32(resScale·v), read before the element is written — out may be
// res. secs is the portable lane's scratch (secWords long), nil
// otherwise.
func (a *mapConv) row(m *Int8Map, oy int, out, res []float32, planeStride int, resScale float32, secs []uint64) {
	if m.c4 != a.c4 || m.w != a.w || m.pad != a.spec.Pad || m.c != a.spec.InC {
		panic("tensor: int8 convolution does not match its activation map")
	}
	src, rowBytes := m.window(oy-a.spec.Pad), m.rowBytes()
	if a.w == 0 {
		return
	}
	// The assembly trusts these extents.
	last := (a.spec.OutC-1)*planeStride + a.w - 1
	_ = out[last]
	if res != nil {
		_ = res[last]
	}
	relu := 0
	if a.relu {
		relu = 1
	}
	var r *float32
	if res != nil {
		r = &res[0]
	}
	switch a.lane {
	case laneAMX:
		convRowInt8AMX(&src[0], rowBytes, a.c4, a.spec.K, a.slices, &a.wq[0], &a.sb[0], a.blocks,
			&out[0], planeStride, a.w, a.spec.OutC, relu, r, resScale, &a.cfg[0], a.sliceBytes)
	case laneVNNI:
		convRowInt8VNNI(&src[0], rowBytes, a.c4, a.spec.K, a.pairs, &a.wq[0], &a.sb[0], a.blocks,
			&out[0], planeStride, a.w, a.spec.OutC, relu, r, resScale)
	case laneAVX2:
		convRowInt8AVX2(&src[0], rowBytes, a.c4, a.spec.K, a.chunks, &a.wq[0], &a.sb[0], a.blocks,
			&out[0], planeStride, a.w, a.spec.OutC, relu, r, resScale)
	default:
		a.rowPortable(src, rowBytes, out, res, planeStride, resScale, secs)
	}
}

// secWords is the portable lane's per-row scratch: every output pixel's
// record (K sections of gs words) and one operand sum per section.
func (a *mapConv) secWords() int { return a.w * (a.g + a.spec.K) }

// rowPortable is row on the SWAR GEMM of kernels_int8.go. The map's
// bytes already are the SWAR operands (value+128, padding 128), so each
// pixel's record is its K window rows packed three bytes to a word, and
// the bias identity unbiases the dot exactly.
func (a *mapConv) rowPortable(src []byte, rowBytes int, out, res []float32, planeStride int, resScale float32, secs []uint64) {
	k, c4, g, gs, ow := a.spec.K, a.c4, a.g, a.gs, a.w
	recs, sums := secs[:ow*g], secs[ow*g:ow*(g+k)]
	for ky := 0; ky < k; ky++ {
		row := src[ky*rowBytes:]
		for ox := 0; ox < ow; ox++ {
			si := ox*k + ky
			sums[si] = packSectionInt8(row[ox*c4:(ox+k)*c4], recs[si*gs:(si+1)*gs])
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
			put(out, res, resScale, i0*planeStride+ox, requantInt8(int32(d0)+corr-swarBias*int32(a.wsum[i0])-rterm, a.scales[i0], b0, a.relu))
			put(out, res, resScale, (i0+1)*planeStride+ox, requantInt8(int32(d1)+corr-swarBias*int32(a.wsum[i0+1])-rterm, a.scales[i0+1], b1, a.relu))
			put(out, res, resScale, (i0+2)*planeStride+ox, requantInt8(int32(d2)+corr-swarBias*int32(a.wsum[i0+2])-rterm, a.scales[i0+2], b2, a.relu))
			put(out, res, resScale, (i0+3)*planeStride+ox, requantInt8(int32(d3)+corr-swarBias*int32(a.wsum[i0+3])-rterm, a.scales[i0+3], b3, a.relu))
		}
		for oc := nb4 * 4; oc < outC; oc++ {
			off := nb4*4*g + (oc-nb4*4)*g
			d := swarDotRow1(a.wp[off:off+g], rec)
			var bo float32
			if a.bias != nil {
				bo = a.bias[oc]
			}
			put(out, res, resScale, oc*planeStride+ox, requantInt8(int32(d)+corr-swarBias*int32(a.wsum[oc])-rterm, a.scales[oc], bo, a.relu))
		}
	}
}

// put stores one finished value at out[i], with res non-nil as the
// residual res[i] + float32(resScale·v), the product rounded first.
func put(out, res []float32, resScale float32, i int, v float32) {
	if res != nil {
		v = res[i] + float32(resScale*v)
	}
	out[i] = v
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

// rowToMap computes output row oy of a convolution that keeps its
// input's geometry (InC == OutC, stride 1) from the map in, and writes
// it into dst as the next convolution's input row oy: the value row
// writes, quantized with multiplier inv by QuantizeInt8Into's
// expression. The AMX and VNNI lanes quantize in register and never
// store the float32 row; the others go through a float32 row in
// scratch.
func (a *mapConv) rowToMap(in *Int8Map, oy int, dst *Int8Map, inv float32) {
	if dst.c != a.spec.OutC || dst.w != a.w {
		panic("tensor: int8 convolution does not match its output map")
	}
	if a.w == 0 {
		return
	}
	switch a.lane {
	case laneAMX, laneVNNI:
		if in.c4 != a.c4 || in.w != a.w || in.pad != a.spec.Pad || in.c != a.spec.InC {
			panic("tensor: int8 convolution does not match its activation map")
		}
		src, rowBytes, out := in.window(oy-a.spec.Pad), in.rowBytes(), dst.pixels(oy)
		if a.lane == laneAMX {
			convRowInt8AMXMap(&src[0], rowBytes, a.c4, a.spec.K, a.slices, &a.wq[0], &a.sb[0], a.blocks,
				&out[0], a.w, a.spec.OutC, inv, &a.cfg[0], a.sliceBytes)
		} else {
			convRowInt8VNNIMap(&src[0], rowBytes, a.c4, a.spec.K, a.pairs, &a.wq[0], &a.sb[0], a.blocks,
				&out[0], a.w, a.spec.OutC, inv)
		}
		dst.publish(oy)
	default:
		fBuf := scratchF32.get(a.spec.OutC * a.w)
		var secs []uint64
		var secBuf *[]uint64
		if a.lane == lanePortable {
			secBuf = scratchU64.get(a.secWords())
			secs = *secBuf
		}
		a.row(in, oy, *fBuf, nil, a.w, 0, secs)
		dst.QuantizeRow(oy, *fBuf, a.w, inv)
		scratchF32.put(fBuf)
		if secBuf != nil {
			scratchU64.put(secBuf)
		}
	}
}

// Int8ConvRows is a stride-1 int8 convolution prepared for one pass of
// row-at-a-time inference over Int8Maps of one width: its weights packed
// once for the pass for the lane that runs it (NewInt8ConvRows), its
// rows computed one call at a time, its pooled buffers returned by
// Release. A prepared Int8ConvRows only reads its state, so one may
// serve several goroutines' maps at once.
type Int8ConvRows struct{ a mapConv }

// NewInt8ConvRows prepares the quantized convolution wq (OutC, InC·K·K)
// with requantization multipliers scales, bias (nil for none) and, with
// relu, a fused ReLU, over maps width pixels wide. Each output element
// is the exact int32 sum Σx·w through the epilogue requantInt8 —
// ·scales[oc] (weight scale × activation scale), + bias[oc], optional
// ReLU. It must be stride 1 with a pad of (K−1)/2.
func NewInt8ConvRows(wq []int8, scales, bias []float32, spec ConvSpec, width int, relu bool) Int8ConvRows {
	if spec.Stride != 1 || spec.K != 2*spec.Pad+1 {
		panic("tensor: row convolutions are stride 1 with a (K−1)/2 pad")
	}
	return Int8ConvRows{a: newMapConv(wq, scales, bias, spec, width, relu)}
}

// Release returns the pooled buffers; c is unusable afterwards.
func (c *Int8ConvRows) Release() {
	c.a.release()
	c.a = mapConv{}
}

// Row computes output row oy of every channel from in's rows
// oy−pad..oy+pad, which must be published: channel oc's pixels at
// out[oc·stride:], each, with res non-nil (laid out like out), res +
// float32(scale·v) — read before the element is written, so out may be
// res, with the sum rounded step by step exactly as a separate
// scaled-add pass. The bits are Conv2DInferInt8's (with res, followed
// by that pass).
func (c *Int8ConvRows) Row(in *Int8Map, oy int, out []float32, stride int, res []float32, scale float32) {
	var secs []uint64
	var secBuf *[]uint64
	if c.a.lane == lanePortable {
		secBuf = scratchU64.get(c.a.secWords())
		secs = *secBuf
	}
	c.a.row(in, oy, out, res, stride, scale, secs)
	if secBuf != nil {
		scratchU64.put(secBuf)
	}
}

// RowToMap computes output row oy as Row does, for a convolution that
// keeps its input's geometry, and writes it into dst's row oy quantized
// with multiplier inv — the next convolution's input, by
// QuantizeInt8Into's expression — and publishes it.
func (c *Int8ConvRows) RowToMap(in *Int8Map, oy int, dst *Int8Map, inv float32) {
	c.a.rowToMap(in, oy, dst, inv)
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
// It runs the row kernel (Int8ConvRows) serially, and so takes what
// NewInt8ConvRows takes — stride 1 with a (K−1)/2 pad — and panics
// otherwise: each image's rows laid out in a pooled K-slot Int8Map,
// each output row computed once its window is published. Outputs are
// bit-identical across lanes and to the naive reference, and
// steady-state calls allocate nothing.
func Conv2DInferInt8(xq []int8, n, c, h, wd int, wq []int8, scales, bias []float32, spec ConvSpec, relu bool, out *Tensor) *Tensor {
	if c != spec.InC {
		panic("tensor: Conv2DInferInt8 channel mismatch")
	}
	if len(xq) != n*c*h*wd {
		panic("tensor: Conv2DInferInt8 input length mismatch")
	}
	k := NewInt8ConvRows(wq, scales, bias, spec, wd, relu)
	out = Ensure(out, n, spec.OutC, h, wd)
	m := mapPool.Get().(*Int8Map)
	m.Reset(c, wd, spec.Pad, spec.K)
	plane := h * wd
	for i := 0; i < n; i++ {
		xi, oi := xq[i*c*plane:], out.Data[i*spec.OutC*plane:]
		for iy := -spec.Pad; iy < h+spec.Pad; iy++ {
			if iy < 0 || iy >= h {
				m.ZeroRow(iy)
			} else {
				layRowInt8(m.pixels(iy), xi[iy*wd:], plane, c, m.c4, wd)
				m.publish(iy)
			}
			if oy := iy - spec.Pad; oy >= 0 {
				k.Row(m, oy, oi[oy*wd:], plane, nil, 0)
			}
		}
	}
	mapPool.Put(m)
	k.Release()
	return out
}
