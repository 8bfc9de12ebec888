package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcsr/internal/video"
)

// Reference routines: the slow, obviously-correct forms the codec ran
// before its fast paths (per-sample clamping, always-transform, a closure
// per pixel, one bit per call), kept here verbatim as oracles. Each fast
// routine is compared with its reference bit for bit — by the exhaustive
// tests below, and over fuzzer-chosen inputs by FuzzCodecKernels — and
// TestCodecGolden pins the composition of all of them.

// ---- reference implementations ----

func refFetchBlock[T sample](src []T, pw, ph, x, y int, m mv, bw, bh int, dst []int32) {
	for by := 0; by < bh; by++ {
		sy := clampi(y+m.y+by, 0, ph-1)
		row := src[sy*pw:]
		for bx := 0; bx < bw; bx++ {
			sx := clampi(x+m.x+bx, 0, pw-1)
			dst[by*bw+bx] = int32(row[sx])
		}
	}
}

func refFetchBlockHP[T sample](src []T, pw, ph, x, y int, m mv, bw, bh int, dst []int32) {
	ix, iy := floorDiv2(m.x), floorDiv2(m.y)
	fx, fy := m.x&1, m.y&1
	if fx == 0 && fy == 0 {
		refFetchBlock(src, pw, ph, x, y, mv{ix, iy}, bw, bh, dst)
		return
	}
	at := func(px, py int) int32 {
		return int32(src[clampi(py, 0, ph-1)*pw+clampi(px, 0, pw-1)])
	}
	for by := 0; by < bh; by++ {
		sy := y + iy + by
		for bx := 0; bx < bw; bx++ {
			sx := x + ix + bx
			dst[by*bw+bx] = (at(sx, sy) + at(sx+fx, sy) + at(sx, sy+fy) + at(sx+fx, sy+fy) + 2) / 4
		}
	}
}

func refFetchBlockAvg(src0 []uint8, m0 mv, src1 []uint8, m1 mv, pw, ph, x, y, bw, bh int, hp bool, dst []int32) {
	tmp0 := make([]int32, bw*bh)
	tmp1 := make([]int32, bw*bh)
	if hp {
		refFetchBlockHP(src0, pw, ph, x, y, m0, bw, bh, tmp0)
		refFetchBlockHP(src1, pw, ph, x, y, m1, bw, bh, tmp1)
	} else {
		refFetchBlock(src0, pw, ph, x, y, m0, bw, bh, tmp0)
		refFetchBlock(src1, pw, ph, x, y, m1, bw, bh, tmp1)
	}
	for i := range dst {
		dst[i] = (tmp0[i] + tmp1[i] + 1) / 2
	}
}

func refSadBlock(cur, ref []uint8, pw, ph, x, y int, m mv, bw, bh int) int {
	var sad int
	for by := 0; by < bh; by++ {
		cy := y + by
		curRow := cur[cy*pw:]
		sy := clampi(cy+m.y, 0, ph-1)
		refRow := ref[sy*pw:]
		for bx := 0; bx < bw; bx++ {
			cx := x + bx
			sx := clampi(cx+m.x, 0, pw-1)
			d := int(curRow[cx]) - int(refRow[sx])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

func refSadBlockHP(cur, ref []uint8, pw, ph, x, y int, m mv, bw, bh int) int {
	tmp := make([]int32, bw*bh)
	refFetchBlockHP(ref, pw, ph, x, y, m, bw, bh, tmp)
	var sad int
	for by := 0; by < bh; by++ {
		row := cur[(y+by)*pw:]
		for bx := 0; bx < bw; bx++ {
			d := int(row[x+bx]) - int(tmp[by*bw+bx])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// refSearchMV is the search without early exit: every candidate's SAD is
// computed in full.
func refSearchMV(cur, ref []uint8, pw, ph, x, y, rng int, pred mv) mv {
	best := mv{0, 0}
	bestSAD := refSadBlock(cur, ref, pw, ph, x, y, best, mbSize, mbSize)
	if psad := refSadBlock(cur, ref, pw, ph, x, y, pred, mbSize, mbSize); psad < bestSAD {
		best, bestSAD = pred, psad
	}
	for dy := -rng; dy <= rng; dy += 4 {
		for dx := -rng; dx <= rng; dx += 4 {
			cand := mv{dx, dy}
			if cand == best {
				continue
			}
			if sad := refSadBlock(cur, ref, pw, ph, x, y, cand, mbSize, mbSize); sad < bestSAD {
				best, bestSAD = cand, sad
			}
		}
	}
	for {
		improved := false
		for _, d := range [...]mv{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}} {
			cand := mv{best.x + d.x, best.y + d.y}
			if cand.x < -rng || cand.x > rng || cand.y < -rng || cand.y > rng {
				continue
			}
			if sad := refSadBlock(cur, ref, pw, ph, x, y, cand, mbSize, mbSize); sad < bestSAD {
				best, bestSAD = cand, sad
				improved = true
			}
		}
		if !improved {
			return best
		}
	}
}

func refRefineHalfPel(cur, ref []uint8, pw, ph, x, y int, full mv) mv {
	best := mv{full.x * 2, full.y * 2}
	bestSAD := refSadBlock(cur, ref, pw, ph, x, y, full, mbSize, mbSize)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			cand := mv{full.x*2 + dx, full.y*2 + dy}
			if sad := refSadBlockHP(cur, ref, pw, ph, x, y, cand, mbSize, mbSize); sad < bestSAD {
				best, bestSAD = cand, sad
			}
		}
	}
	return best
}

// refQuantizeBlock always transforms.
func refQuantizeBlock(res *[16]float64, qstep, roundOff float64, levels *[16]int32) int {
	var coef [16]float64
	fdct4(res, &coef)
	nz := 0
	for i := 0; i < 16; i++ {
		c := coef[i] / qstep
		var q int32
		if c >= 0 {
			q = int32(c + roundOff)
		} else {
			q = -int32(-c + roundOff)
		}
		levels[i] = q
		if q != 0 {
			nz++
		}
	}
	return nz
}

// refReconMB always dequantizes and inverse-transforms.
func refReconMB(rec planes, mx, my int, s *mbScratch, lv *mbLevels, qstep float64) {
	var res [16]float64
	x0, y0 := mx*mbSize, my*mbSize
	bi := 0
	for by := 0; by < mbSize; by += blockSize {
		for bx := 0; bx < mbSize; bx += blockSize {
			dequantizeBlock(&lv.blocks[bi], qstep, &res)
			bi++
			for yy := 0; yy < blockSize; yy++ {
				for xx := 0; xx < blockSize; xx++ {
					p := float64(s.predY[(by+yy)*mbSize+bx+xx])
					rec.y[(y0+by+yy)*rec.lw+x0+bx+xx] = clampPix(p + res[yy*blockSize+xx])
				}
			}
		}
	}
	cx0, cy0 := mx*8, my*8
	for pi, plane := range [][]uint8{rec.u, rec.v} {
		pred := s.predU[:]
		if pi == 1 {
			pred = s.predV[:]
		}
		for by := 0; by < 8; by += blockSize {
			for bx := 0; bx < 8; bx += blockSize {
				dequantizeBlock(&lv.blocks[bi], qstep, &res)
				bi++
				for yy := 0; yy < blockSize; yy++ {
					for xx := 0; xx < blockSize; xx++ {
						p := float64(pred[(by+yy)*8+bx+xx])
						plane[(cy0+by+yy)*rec.cw+cx0+bx+xx] = clampPix(p + res[yy*blockSize+xx])
					}
				}
			}
		}
	}
}

// refApplyMBDelta always goes through the delta planes and asks, for
// every pixel, whether any of its block's 16 levels is nonzero.
func refApplyMBDelta(plain, enh planes, mx, my int, lv *mbLevels, hp bool, ref *refPair, m mv, ref2 *refPair, m2 mv) {
	buf := make([]int32, mbSize*mbSize)
	buf2 := make([]int32, mbSize*mbSize)
	addPlane := func(dst, src []uint8, pw, ph int, d1, d2 []int16, x0, y0, bw, bh int, mm, mm2 mv, bi, hpPlane bool, coded func(bx, by int) bool) {
		if hpPlane {
			refFetchBlockHP(d1, pw, ph, x0, y0, mm, bw, bh, buf[:bw*bh])
		} else {
			refFetchBlock(d1, pw, ph, x0, y0, mm, bw, bh, buf[:bw*bh])
		}
		if bi {
			if hpPlane {
				refFetchBlockHP(d2, pw, ph, x0, y0, mm2, bw, bh, buf2[:bw*bh])
			} else {
				refFetchBlock(d2, pw, ph, x0, y0, mm2, bw, bh, buf2[:bw*bh])
			}
		}
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				pos := (y0+by)*pw + x0 + bx
				if coded(bx, by) {
					dst[pos] = src[pos]
					continue
				}
				dv := buf[by*bw+bx]
				if bi {
					dv = (dv + buf2[by*bw+bx] + 1) / 2
				}
				dst[pos] = clamp8(int32(src[pos]) + dv)
			}
		}
	}
	bi := ref2 != nil
	var d2 [3][]int16
	d1 := [3][]int16{diffPlane(ref.enh.Y, ref.plain.Y), diffPlane(ref.enh.U, ref.plain.U), diffPlane(ref.enh.V, ref.plain.V)}
	if bi {
		d2 = [3][]int16{diffPlane(ref2.enh.Y, ref2.plain.Y), diffPlane(ref2.enh.U, ref2.plain.U), diffPlane(ref2.enh.V, ref2.plain.V)}
	}
	blockCoded := func(blocks *[16]int32) bool {
		for _, v := range blocks {
			if v != 0 {
				return true
			}
		}
		return false
	}
	lumaCoded := func(bx, by int) bool {
		return blockCoded(&lv.blocks[(by/blockSize)*4+bx/blockSize])
	}
	uCoded := func(bx, by int) bool {
		return blockCoded(&lv.blocks[16+(by/blockSize)*2+bx/blockSize])
	}
	vCoded := func(bx, by int) bool {
		return blockCoded(&lv.blocks[20+(by/blockSize)*2+bx/blockSize])
	}
	cm := mv{m.x / 2, m.y / 2}
	cm2 := mv{m2.x / 2, m2.y / 2}
	if hp {
		cm = mv{roundDiv(m.x, 4), roundDiv(m.y, 4)}
		cm2 = mv{roundDiv(m2.x, 4), roundDiv(m2.y, 4)}
	}
	addPlane(enh.y, plain.y, plain.lw, plain.lh, d1[0], d2[0], mx*mbSize, my*mbSize, mbSize, mbSize, m, m2, bi, hp, lumaCoded)
	addPlane(enh.u, plain.u, plain.cw, plain.ch, d1[1], d2[1], mx*8, my*8, 8, 8, cm, cm2, bi, false, uCoded)
	addPlane(enh.v, plain.v, plain.cw, plain.ch, d1[2], d2[2], mx*8, my*8, 8, 8, cm, cm2, bi, false, vCoded)
}

// refBitWriter and refBitReader move one bit per call.
type refBitWriter struct {
	buf  []byte
	cur  byte
	nbit uint
}

func (w *refBitWriter) WriteBit(b uint) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nbit++
	if w.nbit == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nbit = 0, 0
	}
}

func (w *refBitWriter) WriteBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint(v>>uint(i)) & 1)
	}
}

func (w *refBitWriter) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := uint(0)
	for t := x; t > 1; t >>= 1 {
		n++
	}
	w.WriteBits(0, n)
	w.WriteBits(x, n+1)
}

func (w *refBitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.WriteUE(u)
}

func (w *refBitWriter) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	if w.nbit > 0 {
		out = append(out, w.cur<<(8-w.nbit))
	}
	return out
}

type refBitReader struct {
	buf []byte
	pos int
}

func (r *refBitReader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, ErrBitstream
	}
	b := (r.buf[r.pos>>3] >> (7 - uint(r.pos&7))) & 1
	r.pos++
	return uint(b), nil
}

func (r *refBitReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// ReadUE differs from the pre-fast-path reader in one deliberate way: a
// 32-zero prefix whose value does not fit 32 bits is an error where the
// old reader wrapped silently (TestReadUERejectsOverflow).
func (r *refBitReader) ReadUE() (uint32, error) {
	n := uint(0)
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 32 {
			return 0, fmt.Errorf("%w: runaway exp-golomb prefix", ErrBitstream)
		}
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	if n == 32 && rest != 0 {
		return 0, fmt.Errorf("%w: exp-golomb value overflows 32 bits", ErrBitstream)
	}
	return uint32((1<<n)-1) + uint32(rest), nil
}

func (r *refBitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}

// ---- comparisons, shared by the tests and FuzzCodecKernels ----

// farVectors point well outside any plane, up to where int32 deltas
// accumulated over a macroblock row can reach.
var farVectors = func() []mv {
	big := math.MaxInt32 // a variable, so the products below wrap (not fail to compile) where int is 32 bits
	return []mv{
		{1000, 0}, {-1000, 0}, {0, 1000}, {0, -1000}, {big, -big}, {-big, big},
		{big, big}, {math.MinInt32, math.MinInt32}, {big * 960, 3}, {-5, -big * 960},
	}
}()

func randPlane(rng *rand.Rand, n int) []uint8 {
	p := make([]uint8, n)
	rng.Read(p)
	return p
}

// checkSAD compares every 16×16 SAD entry point with the old clamped
// loop under the early-exit contract: exact below limit, ≥ limit otherwise.
func checkSAD(t testing.TB, cur, ref []uint8, pw, ph, x, y int, m mv, limit int) {
	t.Helper()
	want := refSadBlock(cur, ref, pw, ph, x, y, m, mbSize, mbSize)
	agree := func(name string, got int) {
		t.Helper()
		if (want < limit && got != want) || (want >= limit && got < limit) {
			t.Fatalf("%s at (%d,%d) mv %v limit %d in %dx%d: got %d, full SAD %d", name, x, y, m, limit, pw, ph, got, want)
		}
	}
	agree("sadBlock", sadBlock(cur, ref, pw, ph, x, y, m, limit))
	if sx, sy := x+m.x, y+m.y; sx >= 0 && sx <= pw-mbSize && sy >= 0 && sy <= ph-mbSize {
		agree("sad16", sad16(cur[y*pw+x:], ref[sy*pw+sx:], pw, limit))
		agree("sad16Go", sad16Go(cur[y*pw+x:], ref[sy*pw+sx:], pw, limit))
	}
	wantHP := refSadBlockHP(cur, ref, pw, ph, x, y, m, mbSize, mbSize)
	if got := sadMC(cur, ref, pw, ph, x, y, m, true, limit); (wantHP < limit && got != wantHP) || (wantHP >= limit && got < limit) {
		t.Fatalf("half-pel sadMC at (%d,%d) mv %v limit %d: got %d, full SAD %d", x, y, m, limit, got, wantHP)
	}
}

// checkFetch compares the full-pel, half-pel and averaged fetches of a
// bw×bh block with their always-clamping references.
func checkFetch[T sample](t testing.TB, src, src2 []T, pw, ph, x, y int, m, m2 mv, bw, bh int) {
	t.Helper()
	got, want := make([]int32, bw*bh), make([]int32, bw*bh)
	fetchBlock(src, pw, ph, x, y, m, bw, bh, got)
	refFetchBlock(src, pw, ph, x, y, m, bw, bh, want)
	if !equalInt32(got, want) {
		t.Fatalf("fetchBlock %dx%d at (%d,%d) mv %v in %dx%d differs from reference", bw, bh, x, y, m, pw, ph)
	}
	fetchBlockHP(src, pw, ph, x, y, m, bw, bh, got)
	refFetchBlockHP(src, pw, ph, x, y, m, bw, bh, want)
	if !equalInt32(got, want) {
		t.Fatalf("fetchBlockHP %dx%d at (%d,%d) mv %v in %dx%d differs from reference", bw, bh, x, y, m, pw, ph)
	}
	if p8, ok := any(src).([]uint8); ok {
		q8 := any(src2).([]uint8)
		var s mbScratch
		for _, hp := range []bool{false, true} {
			fetchBlockAvg(p8, m, q8, m2, pw, ph, x, y, hp, bw, bh, &s, got)
			refFetchBlockAvg(p8, m, q8, m2, pw, ph, x, y, bw, bh, hp, want)
			if !equalInt32(got, want) {
				t.Fatalf("fetchBlockAvg hp=%t %dx%d at (%d,%d) mv %v/%v differs from reference", hp, bw, bh, x, y, m, m2)
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// checkQuantize compares the zero-quantization shortcut with the
// always-transform quantizer, and the zero-block shortcut of reconBlock
// with always-dequantize on the resulting levels.
func checkQuantize(t testing.TB, res *[16]float64, pred *[16]int32, qp int, roundOff float64) {
	t.Helper()
	qstep := QStep(qp)
	var got, want [16]int32
	for i := range got {
		got[i] = 77 // the shortcut must overwrite stale levels
	}
	gn := quantizeBlock(res, qstep, roundOff, &got)
	wn := refQuantizeBlock(res, qstep, roundOff, &want)
	if gn != wn || got != want {
		t.Fatalf("quantizeBlock qp %d round %g res %v:\n got %v (%d)\nwant %v (%d)", qp, roundOff, *res, got, gn, want, wn)
	}
	checkRecon(t, pred, &want, qp)
}

func checkRecon(t testing.TB, pred *[16]int32, levels *[16]int32, qp int) {
	t.Helper()
	qstep := QStep(qp)
	var got, want [16]uint8
	reconBlock(got[:], blockSize, pred[:], blockSize, levels, isCoded(levels), qstep)
	var res [16]float64
	dequantizeBlock(levels, qstep, &res)
	for i := range want {
		want[i] = clampPix(float64(pred[i]) + res[i])
	}
	if got != want {
		t.Fatalf("reconBlock qp %d levels %v pred %v:\n got %v\nwant %v", qp, *levels, *pred, got, want)
	}
}

// mbFixture is a small frame set for macroblock-level comparisons: a
// current frame and two reference pairs whose enhanced versions saturate.
type mbFixture struct {
	w, h       int
	cur        *video.YUV
	ref, ref2  *refPair
	lv         mbLevels
	mbW, mbH   int
	qp         int
	hp         bool
	m, m2      mv
	mx, my     int
	twoRefs    bool
	plainEqual bool // ref2 has no delta (enh == plain), as an un-enhanced anchor
}

func randFrame(rng *rand.Rand, w, h int) *video.YUV {
	f := video.NewYUV(w, h)
	rng.Read(f.Y)
	rng.Read(f.U)
	rng.Read(f.V)
	return f
}

func (fx *mbFixture) fill(rng *rand.Rand) {
	fx.mbW, fx.mbH = fx.w/mbSize, fx.h/mbSize
	fx.cur = randFrame(rng, fx.w, fx.h)
	p1, p2 := randFrame(rng, fx.w, fx.h), randFrame(rng, fx.w, fx.h)
	fx.ref = &refPair{plain: p1, enh: goldenEnhancer(1, p1)}
	fx.ref2 = &refPair{plain: p2, enh: goldenEnhancer(2, p2)}
	if fx.plainEqual {
		fx.ref2.enh = p2
	}
	// Random level mask: each block all-zero, DC-only, or busy; now and
	// then a block whose announced levels are all coded as 0.
	for i := range fx.lv.blocks {
		fx.lv.blocks[i] = [16]int32{}
		switch rng.Intn(4) {
		case 1:
			fx.lv.blocks[i][0] = int32(rng.Intn(9) - 4)
		case 2:
			for k := 0; k < 1+rng.Intn(6); k++ {
				fx.lv.blocks[i][rng.Intn(16)] = int32(rng.Intn(21) - 10)
			}
		}
		fx.lv.coded[i] = isCoded(&fx.lv.blocks[i])
	}
}

// checkMB compares prediction, reconstruction and delta propagation of
// one macroblock with their references.
func checkMB(t testing.TB, fx *mbFixture) {
	t.Helper()
	qstep := QStep(fx.qp)
	name := fmt.Sprintf("mb (%d,%d) mv %v/%v hp=%t two=%t qp %d", fx.mx, fx.my, fx.m, fx.m2, fx.hp, fx.twoRefs, fx.qp)
	var s, want mbScratch
	p1, p2 := framePlanes(fx.ref.plain), framePlanes(fx.ref2.plain)
	if fx.twoRefs {
		predictMBBi(p1, p2, fx.mx, fx.my, fx.m, fx.m2, fx.hp, &s)
		c0, c1 := chromaMV(fx.m, fx.hp), chromaMV(fx.m2, fx.hp)
		refFetchBlockAvg(p1.y, fx.m, p2.y, fx.m2, p1.lw, p1.lh, fx.mx*mbSize, fx.my*mbSize, mbSize, mbSize, fx.hp, want.predY[:])
		refFetchBlockAvg(p1.u, c0, p2.u, c1, p1.cw, p1.ch, fx.mx*8, fx.my*8, 8, 8, false, want.predU[:])
		refFetchBlockAvg(p1.v, c0, p2.v, c1, p1.cw, p1.ch, fx.mx*8, fx.my*8, 8, 8, false, want.predV[:])
	} else {
		predictMB(p1, fx.mx, fx.my, fx.m, fx.hp, &s)
		cm := chromaMV(fx.m, fx.hp)
		if fx.hp {
			refFetchBlockHP(p1.y, p1.lw, p1.lh, fx.mx*mbSize, fx.my*mbSize, fx.m, mbSize, mbSize, want.predY[:])
		} else {
			refFetchBlock(p1.y, p1.lw, p1.lh, fx.mx*mbSize, fx.my*mbSize, fx.m, mbSize, mbSize, want.predY[:])
		}
		refFetchBlock(p1.u, p1.cw, p1.ch, fx.mx*8, fx.my*8, cm, 8, 8, want.predU[:])
		refFetchBlock(p1.v, p1.cw, p1.ch, fx.mx*8, fx.my*8, cm, 8, 8, want.predV[:])
	}
	if s.predY != want.predY || s.predU != want.predU || s.predV != want.predV {
		t.Fatalf("%s: prediction differs from reference", name)
	}

	// Encoder side: quantize the current frame against the prediction.
	var qlv mbLevels
	quantizeMB(framePlanes(fx.cur), fx.mx, fx.my, &s, qstep, &qlv)
	var res [16]float64
	bi := 0
	for _, p := range mbParts(framePlanes(fx.cur), fx.mx, fx.my, &s) {
		for by := 0; by < p.size; by += blockSize {
			for bx := 0; bx < p.size; bx += blockSize {
				for yy := 0; yy < blockSize; yy++ {
					for xx := 0; xx < blockSize; xx++ {
						res[yy*blockSize+xx] = float64(p.pix[(p.y0+by+yy)*p.pw+p.x0+bx+xx]) - float64(p.pred[(by+yy)*p.size+bx+xx])
					}
				}
				var lvl [16]int32
				nz := refQuantizeBlock(&res, qstep, roundInter, &lvl)
				if lvl != qlv.blocks[bi] || qlv.coded[bi] != (nz != 0) {
					t.Fatalf("%s: quantizeMB block %d differs from reference", name, bi)
				}
				bi++
			}
		}
	}

	// Reconstruction and delta propagation into frames pre-filled with a
	// sentinel, so a write outside the macroblock shows as a difference.
	sentinel := func() *video.YUV {
		f := video.NewYUV(fx.w, fx.h)
		for _, p := range [][]uint8{f.Y, f.U, f.V} {
			for i := range p {
				p[i] = 0xA5
			}
		}
		return f
	}
	rec, recWant := sentinel(), sentinel()
	reconMB(framePlanes(rec), fx.mx, fx.my, &s, &fx.lv, qstep)
	refReconMB(framePlanes(recWant), fx.mx, fx.my, &s, &fx.lv, qstep)
	if d := diffFrames(rec, recWant); d != "" {
		t.Fatalf("%s: reconMB differs from reference: %s", name, d)
	}
	enh, enhWant := sentinel(), sentinel()
	ref2, m2 := fx.ref2, fx.m2
	if !fx.twoRefs {
		ref2, m2 = nil, mv{}
	}
	applyMBDelta(framePlanes(rec), framePlanes(enh), fx.mx, fx.my, &fx.lv.coded, fx.hp, &s, fx.ref, fx.m, ref2, m2)
	refApplyMBDelta(framePlanes(recWant), framePlanes(enhWant), fx.mx, fx.my, &fx.lv, fx.hp, fx.ref, fx.m, ref2, m2)
	if d := diffFrames(enh, enhWant); d != "" {
		t.Fatalf("%s: applyMBDelta differs from reference: %s", name, d)
	}
	if !fx.hp && !fx.twoRefs && fx.ref.delta[0] != nil {
		t.Fatalf("%s: full-pel single-reference propagation built delta planes", name)
	}

	// Skip macroblocks: a copy from the reference, in both chains.
	if !fx.twoRefs {
		var zero mbLevels
		predictMB(p1, fx.mx, fx.my, mv{}, fx.hp, &s)
		refReconMB(framePlanes(recWant), fx.mx, fx.my, &s, &zero, qstep)
		refApplyMBDelta(framePlanes(recWant), framePlanes(enhWant), fx.mx, fx.my, &zero, fx.hp, fx.ref, mv{}, nil, mv{})
		copyMB(framePlanes(rec), p1, fx.mx, fx.my)
		copyMB(framePlanes(enh), framePlanes(fx.ref.enh), fx.mx, fx.my)
		if d := diffFrames(rec, recWant) + diffFrames(enh, enhWant); d != "" {
			t.Fatalf("%s: skip copy differs from reference: %s", name, d)
		}
	}
}

func diffFrames(a, b *video.YUV) string {
	for pi, p := range [][2][]uint8{{a.Y, b.Y}, {a.U, b.U}, {a.V, b.V}} {
		if !bytes.Equal(p[0], p[1]) {
			for i := range p[0] {
				if p[0][i] != p[1][i] {
					return fmt.Sprintf("plane %d offset %d: got %d, want %d", pi, i, p[0][i], p[1][i])
				}
			}
		}
	}
	return ""
}

// bitOp is one write (and the matching read) of a bit-I/O comparison.
type bitOp struct {
	kind uint8 // 0 bit, 1 bits, 2 ue, 3 se
	v    uint64
	n    uint
}

func randBitOps(rng *rand.Rand, count int) []bitOp {
	ops := make([]bitOp, count)
	for i := range ops {
		op := bitOp{kind: uint8(rng.Intn(4))}
		switch op.kind {
		case 0:
			op.v = uint64(rng.Intn(2))
		case 1:
			op.n = uint(rng.Intn(71)) // past 64 on purpose
			op.v = rng.Uint64()
		default:
			// Mostly short codes, as a stream has, with the long tail up
			// to the widest representable values.
			op.v = uint64(rng.Uint32()) >> uint(rng.Intn(33))
			if rng.Intn(16) == 0 {
				op.v = math.MaxUint32 - uint64(rng.Intn(3))
			}
		}
		ops[i] = op
	}
	return ops
}

// checkBitWriter replays ops on both writers and returns the stream.
func checkBitWriter(t testing.TB, ops []bitOp) []byte {
	t.Helper()
	w, rw := NewBitWriter(), &refBitWriter{}
	for i, op := range ops {
		switch op.kind {
		case 0:
			w.WriteBit(uint(op.v))
			rw.WriteBit(uint(op.v))
		case 1:
			w.WriteBits(op.v, op.n)
			rw.WriteBits(op.v, op.n)
		case 2:
			w.WriteUE(uint32(op.v))
			rw.WriteUE(uint32(op.v))
		case 3:
			w.WriteSE(int32(op.v))
			rw.WriteSE(int32(op.v))
		}
		if len(w.buf) != len(rw.buf) || w.nbit != rw.nbit {
			t.Fatalf("op %d %+v: %d bytes + %d bits written, reference %d + %d", i, op, len(w.buf), w.nbit, len(rw.buf), rw.nbit)
		}
	}
	if !bytes.Equal(w.Bytes(), rw.Bytes()) {
		t.Fatalf("BitWriter bytes differ from reference for %+v", ops)
	}
	return w.Bytes()
}

// checkBitReader replays the reads of ops on both readers over data:
// values, errors (identity and text) and positions must agree after every
// call, including the calls after a failure.
func checkBitReader(t testing.TB, data []byte, ops []bitOp) {
	t.Helper()
	r, rr := NewBitReader(data), &refBitReader{buf: data}
	for i, op := range ops {
		var got, want uint64
		var gerr, werr error
		switch op.kind {
		case 0:
			var g, w uint
			g, gerr = r.ReadBit()
			w, werr = rr.ReadBit()
			got, want = uint64(g), uint64(w)
		case 1:
			got, gerr = r.ReadBits(op.n)
			want, werr = rr.ReadBits(op.n)
		case 2:
			var g, w uint32
			g, gerr = r.ReadUE()
			w, werr = rr.ReadUE()
			got, want = uint64(g), uint64(w)
		case 3:
			var g, w int32
			g, gerr = r.ReadSE()
			w, werr = rr.ReadSE()
			got, want = uint64(g), uint64(w)
		}
		if got != want || (gerr == nil) != (werr == nil) || r.pos != rr.pos {
			t.Fatalf("read %d %+v of %d bytes: got %d, %v at bit %d; reference %d, %v at bit %d", i, op, len(data), got, gerr, r.pos, want, werr, rr.pos)
		}
		if gerr != nil && (gerr.Error() != werr.Error() || !errors.Is(gerr, ErrBitstream)) {
			t.Fatalf("read %d %+v: error %q, reference %q", i, op, gerr, werr)
		}
	}
}

// ---- exhaustive and randomized tests ----

// TestSADMatchesRef: every block position of a small plane × every vector
// that reaches up to a macroblock past each edge and corner, plus vectors
// far outside; limits 0, exact, exact+1 and none.
func TestSADMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const pw, ph = 20, 19
	cur, ref := randPlane(rng, pw*ph), randPlane(rng, pw*ph)
	// Flat regions too, so ties and zero SADs occur.
	copy(ref[5*pw:9*pw], cur[5*pw:9*pw])
	for y := 0; y <= ph-mbSize; y++ {
		for x := 0; x <= pw-mbSize; x++ {
			var vecs []mv
			for dy := -(y + mbSize + 1); dy <= ph-y+1; dy++ {
				for dx := -(x + mbSize + 1); dx <= pw-x+1; dx++ {
					vecs = append(vecs, mv{dx, dy})
				}
			}
			for _, m := range append(vecs, farVectors...) {
				exact := refSadBlock(cur, ref, pw, ph, x, y, m, mbSize, mbSize)
				for _, limit := range []int{0, exact, exact + 1, exact / 2, math.MaxInt} {
					checkSAD(t, cur, ref, pw, ph, x, y, m, limit)
				}
			}
		}
	}
}

// TestSearchMatchesRef: early exit never changes the winner.
func TestSearchMatchesRef(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 2, 41)
	for k := 1; k < len(frames); k += 3 {
		cur, ref := frames[k].Y, frames[k-1].Y
		for y := 0; y < 48; y += mbSize {
			for x := 0; x < 64; x += mbSize {
				for _, pred := range []mv{{0, 0}, {3, -2}, {-8, 8}} {
					got := searchMV(cur, ref, 64, 48, x, y, 8, pred)
					if want := refSearchMV(cur, ref, 64, 48, x, y, 8, pred); got != want {
						t.Fatalf("frame %d (%d,%d) pred %v: searchMV %v, reference %v", k, x, y, pred, got, want)
					}
					if g, w := refineHalfPel(cur, ref, 64, 48, x, y, got), refRefineHalfPel(cur, ref, 64, 48, x, y, got); g != w {
						t.Fatalf("frame %d (%d,%d): refineHalfPel %v, reference %v", k, x, y, g, w)
					}
				}
			}
		}
	}
}

// TestFetchMatchesRef: interior vs clamped fetches, 8-bit and delta
// planes, every block shape the codec uses, every position and every
// vector (full- and half-pel units) reaching past each edge.
func TestFetchMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const pw, ph = 20, 18
	p8, q8 := randPlane(rng, pw*ph), randPlane(rng, pw*ph)
	p16, q16 := make([]int16, pw*ph), make([]int16, pw*ph)
	for i := range p16 {
		p16[i], q16[i] = int16(rng.Intn(511)-255), int16(rng.Intn(511)-255)
	}
	for _, sz := range [][2]int{{16, 16}, {8, 8}, {4, 4}, {16, 1}} {
		bw, bh := sz[0], sz[1]
		for y := 0; y <= ph-bh; y += 3 {
			for x := 0; x <= pw-bw; x += 3 {
				var vecs []mv
				for dy := -2*(y+bh) - 3; dy <= 2*(ph-y)+3; dy++ {
					for dx := -2*(x+bw) - 3; dx <= 2*(pw-x)+3; dx++ {
						vecs = append(vecs, mv{dx, dy})
					}
				}
				for i, m := range append(vecs, farVectors...) {
					m2 := mv{-m.y + i%3, m.x - i%5}
					checkFetch(t, p8, q8, pw, ph, x, y, m, m2, bw, bh)
					checkFetch(t, p16, q16, pw, ph, x, y, m, m2, bw, bh)
				}
			}
		}
	}
}

// zeroQuantEdge returns residual blocks whose Σ|res| sits on either side
// of the zero-quantization bound for (qstep, roundOff), with all the
// energy on the four samples and signs where the largest basis product
// lies — the arrangement for which the bound is tight.
func zeroQuantEdge(qstep, roundOff float64) [][16]float64 {
	edge := (1 - roundOff) * qstep / maxBasis2
	var out [][16]float64
	for _, sum := range []float64{
		math.Floor(edge) - 1, math.Floor(edge), math.Floor(edge) + 1, math.Floor(edge) + 2,
		edge * (1 - 1e-5), edge * (1 - 1e-7), edge, edge * (1 + 1e-7), edge * (1 + 1e-3), edge * 1.0006,
	} {
		if sum < 0 {
			continue
		}
		// Corners of the (1,1), (1,3), (3,1), (3,3) basis functions; DC
		// and the flat block for contrast.
		for _, signs := range [][4]float64{{1, -1, -1, 1}, {1, 1, -1, -1}, {1, 1, 1, 1}} {
			var b [16]float64
			b[0], b[3], b[12], b[15] = signs[0]*sum/4, signs[1]*sum/4, signs[2]*sum/4, signs[3]*sum/4
			out = append(out, b)
		}
		var one, flat [16]float64
		one[5] = sum
		for i := range flat {
			flat[i] = sum / 16
		}
		out = append(out, one, flat)
	}
	return out
}

// TestQuantizeMatchesRef: the Σ|res| shortcut vs always-transform, for
// every QP and both rounding offsets, over random residuals of every
// amplitude and over residuals built to sit on the bound.
func TestQuantizeMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	skipped := 0
	for qp := 0; qp <= 51; qp++ {
		for _, roundOff := range []float64{roundIntra, roundInter} {
			var pred [16]int32
			for _, res := range zeroQuantEdge(QStep(qp), roundOff) {
				res := res
				checkQuantize(t, &res, &pred, qp, roundOff)
			}
			for trial := 0; trial < 300; trial++ {
				var res [16]float64
				amp := 1 + rng.Intn(1<<uint(rng.Intn(9)))
				for i := range res {
					res[i] = float64(rng.Intn(2*amp+1) - amp)
					pred[i] = int32(rng.Intn(256))
				}
				var lv [16]int32
				if quantizeBlock(&res, QStep(qp), roundOff, &lv) == 0 {
					skipped++
				}
				checkQuantize(t, &res, &pred, qp, roundOff)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no residual block quantized to zero: the shortcut was never exercised")
	}
}

// TestReconMatchesRef: zero-block pass-through vs always-dequantize over
// all-zero, DC-only and busy blocks, including levels large enough to
// clamp at both ends.
func TestReconMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for qp := 0; qp <= 51; qp++ {
		for trial := 0; trial < 200; trial++ {
			var pred, levels [16]int32
			for i := range pred {
				pred[i] = int32(rng.Intn(256))
				if trial%5 == 0 {
					pred[i] = int32(rng.Intn(2) * 255)
				}
			}
			switch trial % 4 {
			case 1:
				levels[0] = int32(rng.Intn(41) - 20)
			case 2:
				for k := 0; k < 1+rng.Intn(16); k++ {
					levels[rng.Intn(16)] = int32(rng.Intn(2001) - 1000)
				}
			case 3:
				levels[rng.Intn(16)] = int32(rng.Intn(3) - 1)
			}
			checkRecon(t, &pred, &levels, qp)
		}
	}
}

// TestMacroblockMatchesRef: predictMB/predictMBBi, quantizeMB, reconMB,
// applyMBDelta and the skip copy vs their references, on every
// macroblock of a small frame, full- and half-pel, one and two
// references, vectors inside, across every edge and far outside.
func TestMacroblockMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	vecs := append([]mv{{0, 0}, {1, 0}, {0, -1}, {3, 5}, {-7, 2}, {-16, -16}, {15, 17}, {-33, 40}, {64, -64}}, farVectors...)
	for trial := 0; trial < 12; trial++ {
		fx := &mbFixture{w: 48, h: 32, qp: []int{12, 30, 42}[trial%3], plainEqual: trial%4 == 3}
		fx.fill(rng)
		for fx.my = 0; fx.my < fx.mbH; fx.my++ {
			for fx.mx = 0; fx.mx < fx.mbW; fx.mx++ {
				for i, m := range vecs {
					fx.m, fx.m2 = m, vecs[(i+3+trial)%len(vecs)]
					for _, fx.hp = range []bool{false, true} {
						for _, fx.twoRefs = range []bool{false, true} {
							fx.ref.delta, fx.ref2.delta = [3][]int16{}, [3][]int16{}
							checkMB(t, fx)
						}
					}
				}
			}
		}
	}
}

// TestBitIOMatchesRef: accumulator vs bit-at-a-time on random op
// sequences — writer bytes and lengths, then reader values, errors and
// positions at every truncation point of the stream.
func TestBitIOMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 60; trial++ {
		ops := randBitOps(rng, 1+rng.Intn(40))
		data := checkBitWriter(t, ops)
		for cut := 0; cut <= len(data); cut++ {
			checkBitReader(t, data[:cut], ops)
		}
		// The same reads over unrelated bytes: runaway prefixes, codes
		// that straddle the accumulator, zero tails.
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		if trial%3 == 0 {
			for i := range junk {
				junk[i] &= byte(rng.Intn(4)) // long zero runs
			}
		}
		checkBitReader(t, junk, ops)
	}
}

// FuzzCodecKernels drives the comparisons above from fuzzer-chosen
// bytes: plane contents, geometry, vectors, limits, residuals, level
// masks and bit-I/O scripts.
func FuzzCodecKernels(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("dcV1 kernels: sad fetch quant recon delta bits"))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80, 0x7f}, 40))
	f.Add(bytes.Repeat([]byte{0x00}, 96))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		// The bytes seed a generator and are also consumed directly, so
		// the fuzzer controls both bulk content and the decisive scalars.
		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		next := func() int {
			if len(data) == 0 {
				return rng.Intn(256)
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		vec := func() mv {
			switch next() % 8 {
			case 0:
				return farVectors[next()%len(farVectors)]
			case 1:
				return mv{}
			}
			return mv{next()%81 - 40, next()%81 - 40}
		}

		// SAD and fetches on a plane of fuzzer-chosen geometry.
		pw, ph := mbSize+next()%24, mbSize+next()%24
		cur, ref := randPlane(rng, pw*ph), randPlane(rng, pw*ph)
		x, y := next()%(pw-mbSize+1), next()%(ph-mbSize+1)
		m, m2 := vec(), vec()
		exact := refSadBlock(cur, ref, pw, ph, x, y, m, mbSize, mbSize)
		for _, limit := range []int{0, exact, exact + 1, next() * 16, math.MaxInt} {
			checkSAD(t, cur, ref, pw, ph, x, y, m, limit)
		}
		d1, d2 := make([]int16, pw*ph), make([]int16, pw*ph)
		for i := range d1 {
			d1[i], d2[i] = int16(rng.Intn(511)-255), int16(rng.Intn(511)-255)
		}
		for _, sz := range [][2]int{{16, 16}, {8, 8}, {4, 4}, {16, 1}} {
			bx, by := next()%(pw-sz[0]+1), next()%(ph-sz[1]+1)
			checkFetch(t, cur, ref, pw, ph, bx, by, m, m2, sz[0], sz[1])
			checkFetch(t, d1, d2, pw, ph, bx, by, m, m2, sz[0], sz[1])
		}

		// Quantizer and reconstruction.
		qp := next() % 52
		roundOff := []float64{roundIntra, roundInter}[next()%2]
		var res [16]float64
		var pred, levels [16]int32
		amp := 1 + next()
		for i := range res {
			res[i] = float64(rng.Intn(2*amp+1) - amp)
			pred[i] = int32(next())
			if next()%3 == 0 {
				levels[i] = int32(next() - 128)
			}
		}
		checkQuantize(t, &res, &pred, qp, roundOff)
		checkRecon(t, &pred, &levels, qp)
		edges := zeroQuantEdge(QStep(qp), roundOff)
		checkQuantize(t, &edges[next()%len(edges)], &pred, qp, roundOff)

		// One macroblock through prediction, reconstruction and delta.
		fx := &mbFixture{w: 32 + 16*(next()%2), h: 32, qp: qp, hp: next()%2 == 1, twoRefs: next()%2 == 1, plainEqual: next()%4 == 0, m: m, m2: m2}
		fx.fill(rng)
		fx.mx, fx.my = next()%fx.mbW, next()%fx.mbH
		checkMB(t, fx)

		// Bit I/O: a script, its stream at a fuzzer-chosen cut, and the
		// raw input as a stream.
		ops := randBitOps(rng, 1+next()%32)
		stream := checkBitWriter(t, ops)
		checkBitReader(t, stream[:next()%(len(stream)+1)], ops)
		checkBitReader(t, data, ops)
	})
}
