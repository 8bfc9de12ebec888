package codec

import (
	"fmt"

	"dcsr/internal/video"
)

// mbSize is the macroblock size in luma samples.
const mbSize = 16

// searchRange is the full-pel motion search range.
const searchRange = 8

// EncoderConfig controls rate/quality and GOP structure.
type EncoderConfig struct {
	// QP is the quantization parameter in [0, 51]; it plays the role of
	// FFMPEG's CRF (the paper encodes low-quality inputs at CRF 51).
	QP int
	// GOPSize is the maximum distance between I frames. Scene cuts may
	// place I frames earlier. Default 30.
	GOPSize int
	// BFrames is the number of B frames between consecutive anchors (0–3).
	BFrames int
	// HalfPel enables half-sample motion compensation for P/B luma
	// (bilinearly interpolated). Off by default.
	HalfPel bool
	// Deblock enables the in-loop deblocking filter. Off by default.
	Deblock bool
}

func (c EncoderConfig) withDefaults() EncoderConfig {
	if c.GOPSize == 0 {
		c.GOPSize = 30
	}
	if c.QP < 0 {
		c.QP = 0
	}
	if c.QP > 51 {
		c.QP = 51
	}
	if c.BFrames < 0 {
		c.BFrames = 0
	}
	if c.BFrames > 3 {
		c.BFrames = 3
	}
	return c
}

// Encode compresses frames (display order) into a Stream. forceI marks
// display indices that must start with an I frame (scene cuts from the
// shot-based splitter); it may be nil. Frame dimensions must be multiples
// of 16. fps is recorded in the stream header.
func Encode(frames []*video.YUV, forceI []bool, fps int, cfg EncoderConfig) (*Stream, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("codec: no frames to encode")
	}
	w, h := frames[0].W, frames[0].H
	if w%mbSize != 0 || h%mbSize != 0 {
		return nil, fmt.Errorf("codec: frame dimensions %dx%d must be multiples of %d", w, h, mbSize)
	}
	for i, f := range frames {
		if f.W != w || f.H != h {
			return nil, fmt.Errorf("codec: frame %d dimension mismatch", i)
		}
	}
	if forceI != nil && len(forceI) != len(frames) {
		return nil, fmt.Errorf("codec: forceI length %d != frame count %d", len(forceI), len(frames))
	}
	cfg = cfg.withDefaults()
	n := len(frames)

	// Anchor placement: every BFrames+1 frames, pulled in by scene cuts.
	anchors := []int{0}
	for anchors[len(anchors)-1] < n-1 {
		last := anchors[len(anchors)-1]
		next := last + cfg.BFrames + 1
		if next > n-1 {
			next = n - 1
		}
		for j := last + 1; j <= next; j++ {
			if forceI != nil && forceI[j] {
				next = j
				break
			}
		}
		anchors = append(anchors, next)
	}

	st := &Stream{W: w, H: h, FPS: fps}
	// Per-frame-type QP offsets, as production encoders use: I frames are
	// coded finer because every frame in the GOP inherits their quality
	// (exactly the structure dcSR's I-frame enhancement relies on); B
	// frames, referenced by nothing, are coded coarser.
	qpI, qpP, qpB := clampQP(cfg.QP-6), cfg.QP, clampQP(cfg.QP+2)
	lastI := 0

	var prevRecon *video.YUV
	for k, a := range anchors {
		isI := k == 0 || (forceI != nil && forceI[a]) || a-lastI >= cfg.GOPSize
		var data []byte
		var recon *video.YUV
		if isI {
			data, recon = encodeIFrame(frames[a], qpI, QStep(qpI), cfg.Deblock)
			st.Frames = append(st.Frames, EncodedFrame{Type: FrameI, Display: a, Data: data})
			lastI = a
		} else {
			data, recon = encodePFrame(frames[a], prevRecon, qpP, QStep(qpP), cfg.HalfPel, cfg.Deblock)
			st.Frames = append(st.Frames, EncodedFrame{Type: FrameP, Display: a, Data: data})
		}
		// B frames between the previous anchor and this one, coded after it.
		if k > 0 {
			for b := anchors[k-1] + 1; b < a; b++ {
				bd := encodeBFrame(frames[b], prevRecon, recon, qpB, QStep(qpB), cfg.HalfPel, cfg.Deblock)
				st.Frames = append(st.Frames, EncodedFrame{Type: FrameB, Display: b, Data: bd})
			}
		}
		prevRecon = recon
	}
	return st, nil
}

func clampQP(qp int) int {
	if qp < 0 {
		return 0
	}
	if qp > 51 {
		return 51
	}
	return qp
}

// encodeIFrame codes a frame with intra DC-predicted 4×4 blocks and returns
// the bitstream plus the closed-loop reconstruction.
func encodeIFrame(f *video.YUV, qp int, qstep float64, deblock bool) ([]byte, *video.YUV) {
	w := NewBitWriter()
	w.WriteBits(uint64(qp), 6)
	w.WriteBit(flagBit(deblock))
	recon := video.NewYUV(f.W, f.H)
	encodePlaneIntra(w, f.Y, recon.Y, f.W, f.H, qstep)
	encodePlaneIntra(w, f.U, recon.U, f.ChromaW(), f.ChromaH(), qstep)
	encodePlaneIntra(w, f.V, recon.V, f.ChromaW(), f.ChromaH(), qstep)
	if deblock {
		deblockFrame(recon, qstep)
	}
	return w.Bytes(), recon
}

func flagBit(on bool) uint {
	if on {
		return 1
	}
	return 0
}

// Intra 4×4 prediction modes (a subset of H.264's nine): DC from the
// neighbor average, vertical extrapolation of the row above, horizontal
// extrapolation of the column to the left.
const (
	intraDC = 0
	intraV  = 1
	intraH  = 2
)

// intraPredict fills a 4×4 prediction block for the given mode from
// reconstructed neighbors. Modes needing unavailable neighbors fall back
// to DC, and the caller must not signal them in that case.
func intraPredict(rec []uint8, pw, x, y, mode int, pred *[16]int32) {
	switch {
	case mode == intraV && y > 0:
		row := rec[(y-1)*pw:]
		for bx := 0; bx < blockSize; bx++ {
			v := int32(row[x+bx])
			for by := 0; by < blockSize; by++ {
				pred[by*blockSize+bx] = v
			}
		}
	case mode == intraH && x > 0:
		for by := 0; by < blockSize; by++ {
			v := int32(rec[(y+by)*pw+x-1])
			for bx := 0; bx < blockSize; bx++ {
				pred[by*blockSize+bx] = v
			}
		}
	default:
		dc := intraDCPred(rec, pw, x, y)
		for i := range pred {
			pred[i] = dc
		}
	}
}

// encodePlaneIntra codes one plane in raster 4×4 blocks. For each block
// the encoder tries the available intra prediction modes, keeps the one
// with the lowest residual energy, and signals it with an Exp-Golomb code
// before the coefficients.
func encodePlaneIntra(w *BitWriter, src, rec []uint8, pw, ph int, qstep float64) {
	var res [16]float64
	var levels [16]int32
	var pred, bestPred [16]int32
	for y := 0; y < ph; y += blockSize {
		for x := 0; x < pw; x += blockSize {
			bestMode, bestCost := intraDC, int64(1)<<62
			for _, mode := range [...]int{intraDC, intraV, intraH} {
				if (mode == intraV && y == 0) || (mode == intraH && x == 0) {
					continue
				}
				intraPredict(rec, pw, x, y, mode, &pred)
				var cost int64
				for by := 0; by < blockSize; by++ {
					for bx := 0; bx < blockSize; bx++ {
						d := int64(src[(y+by)*pw+x+bx]) - int64(pred[by*blockSize+bx])
						cost += d * d
					}
				}
				if cost < bestCost {
					bestMode, bestCost = mode, cost
					bestPred = pred
				}
			}
			w.WriteUE(uint32(bestMode))
			for by := 0; by < blockSize; by++ {
				for bx := 0; bx < blockSize; bx++ {
					res[by*blockSize+bx] = float64(src[(y+by)*pw+x+bx]) - float64(bestPred[by*blockSize+bx])
				}
			}
			nz := quantizeBlock(&res, qstep, roundIntra, &levels)
			writeLevels(w, &levels)
			reconBlock(rec[y*pw+x:], pw, bestPred[:], blockSize, &levels, nz != 0, qstep)
		}
	}
}

// intraDCPred predicts a 4×4 block's DC value from the reconstructed row
// above and column left of the block, falling back to 128 at the frame
// border (mirroring H.264's DC intra mode).
func intraDCPred(rec []uint8, pw, x, y int) int32 {
	var sum, cnt int32
	if y > 0 {
		row := rec[(y-1)*pw:]
		for i := 0; i < blockSize; i++ {
			sum += int32(row[x+i])
			cnt++
		}
	}
	if x > 0 {
		for i := 0; i < blockSize; i++ {
			sum += int32(rec[(y+i)*pw+x-1])
			cnt++
		}
	}
	if cnt == 0 {
		return 128
	}
	return (sum + cnt/2) / cnt
}

func clampPix(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// mbLevels holds the quantized levels of one macroblock: 16 luma blocks
// followed by 4+4 chroma blocks, each group in raster order.
type mbLevels struct {
	blocks [24][16]int32
	coded  [24]bool // blocks[i] has a nonzero level
	nz     int
}

// mbScratch holds one macroblock's prediction (16×16 luma, 8×8 per chroma
// plane) and two fetch buffers, so the coding loops allocate per frame,
// not per macroblock.
type mbScratch struct {
	predY        [mbSize * mbSize]int32
	predU, predV [8 * 8]int32
	t0, t1       [mbSize * mbSize]int32
}

// mbPart is one plane's share of a macroblock: the size×size square at
// (x0, y0) of the pw×ph plane pix, predicted by pred, whose 4×4 blocks
// start at index first of mbLevels.
type mbPart struct {
	pix            []uint8
	pw, ph, x0, y0 int
	size, first    int
	pred           []int32
}

func mbParts(p planes, mx, my int, s *mbScratch) [3]mbPart {
	return [3]mbPart{
		{p.y, p.lw, p.lh, mx * mbSize, my * mbSize, mbSize, 0, s.predY[:]},
		{p.u, p.cw, p.ch, mx * 8, my * 8, 8, 16, s.predU[:]},
		{p.v, p.cw, p.ch, mx * 8, my * 8, 8, 20, s.predV[:]},
	}
}

// quantizeMB computes residual levels for the macroblock (mx, my) of cur
// against the prediction in s.
func quantizeMB(cur planes, mx, my int, s *mbScratch, qstep float64, out *mbLevels) {
	out.nz = 0
	var res [16]float64
	for _, p := range mbParts(cur, mx, my, s) {
		bi := p.first
		for by := 0; by < p.size; by += blockSize {
			for bx := 0; bx < p.size; bx += blockSize {
				for yy := 0; yy < blockSize; yy++ {
					pred := p.pred[(by+yy)*p.size+bx:][:blockSize]
					for xx, v := range p.pix[(p.y0+by+yy)*p.pw+p.x0+bx:][:blockSize] {
						res[yy*blockSize+xx] = float64(v) - float64(pred[xx])
					}
				}
				nz := quantizeBlock(&res, qstep, roundInter, &out.blocks[bi])
				out.coded[bi] = nz != 0
				out.nz += nz
				bi++
			}
		}
	}
}

// writeMBLevels entropy-codes all 24 blocks of a macroblock.
func writeMBLevels(w *BitWriter, lv *mbLevels) {
	for i := range lv.blocks {
		writeLevels(w, &lv.blocks[i])
	}
}

// reconMB reconstructs a macroblock into rec from the prediction in s and
// the levels.
func reconMB(rec planes, mx, my int, s *mbScratch, lv *mbLevels, qstep float64) {
	for _, p := range mbParts(rec, mx, my, s) {
		bi := p.first
		for by := 0; by < p.size; by += blockSize {
			for bx := 0; bx < p.size; bx += blockSize {
				reconBlock(p.pix[(p.y0+by)*p.pw+p.x0+bx:], p.pw, p.pred[by*p.size+bx:], p.size, &lv.blocks[bi], lv.coded[bi], qstep)
				bi++
			}
		}
	}
}

// chromaMV derives the chroma vector from a luma one: halved in full-pel
// mode, rounded to the nearest full chroma sample in half-pel mode.
func chromaMV(m mv, hp bool) mv {
	if hp {
		return mv{roundDiv(m.x, 4), roundDiv(m.y, 4)}
	}
	return mv{m.x / 2, m.y / 2}
}

// predictMB fills the prediction in s for a macroblock from a reference
// frame displaced by m. In full-pel mode m is in luma samples; in
// half-pel mode m is in half-samples and luma is interpolated.
func predictMB(ref planes, mx, my int, m mv, hp bool, s *mbScratch) {
	fetchMC(ref.y, ref.lw, ref.lh, mx*mbSize, my*mbSize, m, hp, mbSize, mbSize, s.predY[:])
	cm := chromaMV(m, hp)
	fetchBlock(ref.u, ref.cw, ref.ch, mx*8, my*8, cm, 8, 8, s.predU[:])
	fetchBlock(ref.v, ref.cw, ref.ch, mx*8, my*8, cm, 8, 8, s.predV[:])
}

// roundDiv divides rounding to nearest, away from zero on ties.
func roundDiv(v, d int) int {
	if v >= 0 {
		return (v + d/2) / d
	}
	return -((-v + d/2) / d)
}

// predictMBBi fills the prediction in s with the bi-directional average
// of two references.
func predictMBBi(fwd, bwd planes, mx, my int, m0, m1 mv, hp bool, s *mbScratch) {
	c0, c1 := chromaMV(m0, hp), chromaMV(m1, hp)
	fetchBlockAvg(fwd.y, m0, bwd.y, m1, fwd.lw, fwd.lh, mx*mbSize, my*mbSize, hp, mbSize, mbSize, s, s.predY[:])
	fetchBlockAvg(fwd.u, c0, bwd.u, c1, fwd.cw, fwd.ch, mx*8, my*8, false, 8, 8, s, s.predU[:])
	fetchBlockAvg(fwd.v, c0, bwd.v, c1, fwd.cw, fwd.ch, mx*8, my*8, false, 8, 8, s, s.predV[:])
}

// Macroblock modes.
const (
	mbSkip  = 0 // zero motion, no residual (direct mode for B frames)
	mbCoded = 1 // explicit motion vector(s) + residual
)

// encodePFrame codes an inter frame against one reference.
func encodePFrame(f, ref *video.YUV, qp int, qstep float64, hp, deblock bool) ([]byte, *video.YUV) {
	w := NewBitWriter()
	w.WriteBits(uint64(qp), 6)
	w.WriteBit(flagBit(hp))
	w.WriteBit(flagBit(deblock))
	cur, refp := framePlanes(f), framePlanes(ref)
	recon := video.NewYUV(f.W, f.H)
	recp := framePlanes(recon)
	mbW, mbH := f.W/mbSize, f.H/mbSize
	var s mbScratch
	var lv mbLevels
	for my := 0; my < mbH; my++ {
		predMV := mv{0, 0}
		for mx := 0; mx < mbW; mx++ {
			fullPred := predMV
			if hp {
				fullPred = mv{roundDiv(predMV.x, 2), roundDiv(predMV.y, 2)}
			}
			best := searchMV(cur.y, refp.y, f.W, f.H, mx*mbSize, my*mbSize, searchRange, fullPred)
			if hp {
				best = refineHalfPel(cur.y, refp.y, f.W, f.H, mx*mbSize, my*mbSize, best)
			}
			predictMB(refp, mx, my, best, hp, &s)
			quantizeMB(cur, mx, my, &s, qstep, &lv)
			reconMB(recp, mx, my, &s, &lv, qstep)
			if best == (mv{0, 0}) && lv.nz == 0 {
				w.WriteUE(mbSkip)
				predMV = mv{0, 0}
				continue
			}
			w.WriteUE(mbCoded)
			w.WriteSE(int32(best.x - predMV.x))
			w.WriteSE(int32(best.y - predMV.y))
			writeMBLevels(w, &lv)
			predMV = best
		}
	}
	if deblock {
		deblockFrame(recon, qstep)
	}
	return w.Bytes(), recon
}

// encodeBFrame codes a bi-predicted frame against forward and backward
// anchor references.
func encodeBFrame(f, fwd, bwd *video.YUV, qp int, qstep float64, hp, deblock bool) []byte {
	w := NewBitWriter()
	w.WriteBits(uint64(qp), 6)
	w.WriteBit(flagBit(hp))
	w.WriteBit(flagBit(deblock))
	cur, fp, bp := framePlanes(f), framePlanes(fwd), framePlanes(bwd)
	mbW, mbH := f.W/mbSize, f.H/mbSize
	var s mbScratch
	var lv mbLevels
	for my := 0; my < mbH; my++ {
		predMV0, predMV1 := mv{0, 0}, mv{0, 0}
		for mx := 0; mx < mbW; mx++ {
			fp0, fp1 := predMV0, predMV1
			if hp {
				fp0 = mv{roundDiv(predMV0.x, 2), roundDiv(predMV0.y, 2)}
				fp1 = mv{roundDiv(predMV1.x, 2), roundDiv(predMV1.y, 2)}
			}
			m0 := searchMV(cur.y, fp.y, f.W, f.H, mx*mbSize, my*mbSize, searchRange, fp0)
			m1 := searchMV(cur.y, bp.y, f.W, f.H, mx*mbSize, my*mbSize, searchRange, fp1)
			if hp {
				m0 = refineHalfPel(cur.y, fp.y, f.W, f.H, mx*mbSize, my*mbSize, m0)
				m1 = refineHalfPel(cur.y, bp.y, f.W, f.H, mx*mbSize, my*mbSize, m1)
			}
			predictMBBi(fp, bp, mx, my, m0, m1, hp, &s)
			quantizeMB(cur, mx, my, &s, qstep, &lv)
			if m0 == (mv{0, 0}) && m1 == (mv{0, 0}) && lv.nz == 0 {
				w.WriteUE(mbSkip)
				predMV0, predMV1 = mv{0, 0}, mv{0, 0}
				continue
			}
			w.WriteUE(mbCoded)
			w.WriteSE(int32(m0.x - predMV0.x))
			w.WriteSE(int32(m0.y - predMV0.y))
			w.WriteSE(int32(m1.x - predMV1.x))
			w.WriteSE(int32(m1.y - predMV1.y))
			writeMBLevels(w, &lv)
			predMV0, predMV1 = m0, m1
		}
	}
	return w.Bytes()
}
