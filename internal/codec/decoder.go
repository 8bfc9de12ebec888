package codec

import (
	"fmt"
	"time"

	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// FrameEnhancer is the client-side dcSR hook: after the decoder
// reconstructs an I frame into the decoded picture buffer it pauses,
// hands the frame to the enhancer, and stores the result back in the DPB
// before any P or B frame references it (paper Fig 6, steps 2–5). The
// returned frame must have the same dimensions as the input so the
// remaining motion-compensated decoding stays valid; color conversion
// (YUV→RGB→YUV) happens inside the enhancer. The enhancer also reports
// the numeric path it ran (int8 for clusters that passed the server's
// calibration quality gate, float32 for the rest), and the decoder
// attributes each enhancement to it.
//
// The input belongs to the decoder: once it leaves the DPB the decoder
// reuses its planes for a later picture, so a hook must not retain it.
// A hook returns either the input itself, to decline, or a frame that
// shares no plane with it.
type FrameEnhancer interface {
	EnhanceIFrame(display int, f *video.YUV) (*video.YUV, Precision)
}

// PrecisionEnhancerFunc adapts a function to the FrameEnhancer interface.
type PrecisionEnhancerFunc func(display int, f *video.YUV) (*video.YUV, Precision)

// EnhanceIFrame calls the function.
func (fn PrecisionEnhancerFunc) EnhanceIFrame(display int, f *video.YUV) (*video.YUV, Precision) {
	return fn(display, f)
}

// Precision identifies the numeric path an enhancer used for a frame.
type Precision int

// Enhancer numeric paths.
const (
	// PrecisionFloat32 is the full-precision kernel path.
	PrecisionFloat32 Precision = iota
	// PrecisionInt8 is the quantized kernel path; frames enhanced on it
	// are counted separately (DecodeStats.EnhancedInt8,
	// codec_enhance_int8_seconds) so an operator can see which
	// path is actually serving.
	PrecisionInt8
)

// Propagation selects how I-frame enhancement reaches dependent frames.
type Propagation int

// Propagation modes.
const (
	// PropagateReplace is the paper-literal mechanism (Fig 6): the
	// enhanced I frame replaces the original in the DPB and the remaining
	// frames decode against it. Coded P/B residuals were produced against
	// the *unenhanced* reconstruction, so they partially double-correct —
	// the "quality drift" the paper mentions.
	PropagateReplace Propagation = iota
	// PropagateDelta is the drift-free variant (NEMO-style quality
	// transfer): P and B frames decode against the plain reference chain
	// exactly as encoded, and the enhancement delta (enhanced − plain)
	// rides along motion compensation into every dependent frame. This is
	// the default used by the dcSR player; the ablation benchmark
	// compares the two modes.
	PropagateDelta
)

// refPair tracks the two parallel reconstructions of a reference frame:
// the bitstream-consistent plain decode and the enhancement-carrying
// version shown to the user.
type refPair struct {
	plain   *video.YUV
	enh     *video.YUV
	display int // the frame's display index

	// cached (enh − plain) planes for delta motion compensation
	delta [3][]int16
}

// hasDelta reports whether the enhanced version differs from the plain one.
func (rp *refPair) hasDelta() bool { return rp.enh != rp.plain }

// deltas lazily computes the enhancement difference planes (Y, U, V).
// Only half-pel and bi-predicted frames need them; see applyMBDelta.
func (rp *refPair) deltas() [3][]int16 {
	if rp.delta[0] == nil {
		rp.delta = [3][]int16{
			diffPlane(rp.enh.Y, rp.plain.Y),
			diffPlane(rp.enh.U, rp.plain.U),
			diffPlane(rp.enh.V, rp.plain.V),
		}
	}
	return rp.delta
}

func diffPlane(a, b []uint8) []int16 {
	d := make([]int16, len(a))
	for i := range a {
		d[i] = int16(a[i]) - int16(b[i])
	}
	return d
}

// DecodeStats records what a decode pass did; the device model consumes
// these counts to estimate latency and power.
type DecodeStats struct {
	IFrames, PFrames, BFrames int
	Enhanced                  int // I frames actually enhanced (hook may decline by returning its input)
	EnhancedInt8              int // subset of Enhanced served on the int8 path
	Bits                      int
}

// Frames returns the total decoded frame count.
func (s DecodeStats) Frames() int { return s.IFrames + s.PFrames + s.BFrames }

// Decoder decodes a Stream. If Enhancer is non-nil it is applied to every
// I frame in the DPB before dependent frames are decoded, so the
// enhancement propagates to P and B frames — the core client-side dcSR
// mechanism. Mode selects between the paper-literal DPB replacement and
// drift-free delta propagation. The zero value is a ready-to-use decoder
// without enhancement.
//
// Under PropagateDelta the plain reconstruction chain is never
// displayed; a Decoder keeps those pictures once they leave the DPB and
// decodes later pictures into them, across Decode calls, so a reused
// Decoder allocates only the frames it returns — and, when its caller
// hands those back with Recycle, not even them. A copy of a Decoder
// starts with none of them.
type Decoder struct {
	Enhancer FrameEnhancer
	Mode     Propagation
	Stats    DecodeStats
	// Obs, when set, records codec_frames_decoded_total,
	// codec_iframes_enhanced_total and the I-frame-enhance latency in
	// codec_enhance_seconds; enhancements the Enhancer attributes to the
	// int8 path additionally feed codec_enhance_int8_seconds.
	Obs *obs.Obs
	// Now supplies the clock for the enhance-latency histogram; nil
	// means time.Now. Tests inject a fake clock to make the recorded
	// latencies deterministic.
	Now func() time.Time

	// free holds the pictures later decodes fill: plain ones that left
	// the DPB undisplayed, and the frames the caller handed back
	// (Recycle); self detects a copied Decoder, which must not share them
	// (the check strings.Builder makes).
	free []*video.YUV
	self *Decoder
}

// maxFree is the DPB depth: two anchors and a B frame's plain picture.
// A Decoder allocates a picture only when its free list is empty, so
// unless its caller hands frames back it never holds more than this.
const maxFree = 3

// picture returns a w×h picture for a decode that writes every sample:
// a recycled one when the free list holds it, else a new one. A
// recycled picture of another size is dropped.
func (d *Decoder) picture(w, h int) *video.YUV {
	for n := len(d.free); n > 0; n = len(d.free) {
		f := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		if f.W == w && f.H == h {
			return f
		}
	}
	return video.NewYUV(w, h)
}

// Recycle hands back frames a Decode returned that the caller no longer
// holds: later Decodes decode into them. A frame must be handed back at
// most once, and not while anything still reads it.
func (d *Decoder) Recycle(frames []*video.YUV) {
	if d.self != d {
		d.self, d.free = d, nil
	}
	d.free = append(d.free, frames...)
}

// recycle puts a plain picture that was never displayed on the free
// list.
func (d *Decoder) recycle(f *video.YUV) {
	d.free = append(d.free, f)
}

// retire recycles the plain picture of an anchor leaving the DPB; one
// that is also displayed (no enhancement delta) stays with the caller.
func (d *Decoder) retire(rp *refPair) {
	if rp != nil && rp.hasDelta() {
		d.recycle(rp.plain)
	}
}

// Decode reconstructs all frames of s in display order.
func (d *Decoder) Decode(s *Stream) ([]*video.YUV, error) {
	if s.W <= 0 || s.H <= 0 || s.W%mbSize != 0 || s.H%mbSize != 0 {
		return nil, fmt.Errorf("codec: stream dimensions %dx%d invalid", s.W, s.H)
	}
	// Validate before allocating: n frames fill at most n display slots,
	// so an index beyond that can never yield a complete sequence, and a
	// payload below the minimum for its frame type cannot decode. Without
	// these a few hostile bytes cost a slot table or a frame of memory.
	for i := range s.Frames {
		ef := &s.Frames[i]
		if ef.Display < 0 || ef.Display >= len(s.Frames) {
			return nil, fmt.Errorf("%w: display index %d out of range for %d frames", ErrBitstream, ef.Display, len(s.Frames))
		}
		if need := minFrameBits(ef.Type, s.W, s.H); len(ef.Data)*8 < need {
			return nil, fmt.Errorf("%w: %v frame %d: %d-byte payload, need at least %d bits", ErrBitstream, ef.Type, ef.Display, len(ef.Data), need)
		}
	}
	// Resolve metric handles once per decode; all are nil (no-op) when
	// Obs is unset, so the per-frame path stays branch-cheap.
	enhHist := d.Obs.Histogram("codec_enhance_seconds")
	enhI8Hist := d.Obs.Histogram("codec_enhance_int8_seconds")
	enhCtr := d.Obs.Counter("codec_iframes_enhanced_total")
	frameCtr := d.Obs.Counter("codec_frames_decoded_total")
	now := d.Now
	if now == nil {
		now = time.Now
	}
	if d.self != d {
		d.self, d.free = d, nil
	}
	out := make([]*video.YUV, frameSpan(s))
	var prevAnchor, lastAnchor *refPair
	for i := range s.Frames {
		ef := &s.Frames[i]
		r := NewBitReader(ef.Data)
		qpBits, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		qstep := QStep(int(qpBits))
		var display *video.YUV
		switch ef.Type {
		case FrameI:
			f := d.picture(s.W, s.H)
			if err := decodeIFrame(r, f, qstep); err != nil {
				return nil, fmt.Errorf("codec: I frame %d: %w", ef.Display, err)
			}
			d.Stats.IFrames++
			enh := f
			if d.Enhancer != nil {
				var t0 time.Time
				if enhHist != nil {
					t0 = now()
				}
				var prec Precision
				enh, prec = d.Enhancer.EnhanceIFrame(ef.Display, f)
				if enh.W != f.W || enh.H != f.H {
					return nil, fmt.Errorf("codec: enhancer changed frame dimensions %dx%d -> %dx%d", f.W, f.H, enh.W, enh.H)
				}
				// A hook that returns its input unchanged declined (no
				// model for the segment, or it is degraded); only real
				// enhancements count and are timed.
				if enh != f {
					if enhHist != nil {
						elapsed := now().Sub(t0).Seconds()
						enhHist.Observe(elapsed)
						if prec == PrecisionInt8 {
							enhI8Hist.Observe(elapsed)
						}
					}
					enhCtr.Inc()
					d.Stats.Enhanced++
					if prec == PrecisionInt8 {
						d.Stats.EnhancedInt8++
					}
				}
			}
			pair := &refPair{plain: f, enh: enh, display: ef.Display}
			if d.Mode == PropagateReplace {
				// Paper Fig 6: the enhanced frame replaces the decoded one
				// in the DPB; dependent frames reference it directly.
				pair.plain = enh
			}
			display = enh
			d.retire(prevAnchor)
			prevAnchor, lastAnchor = lastAnchor, pair
		case FrameP:
			if lastAnchor == nil {
				return nil, fmt.Errorf("codec: P frame %d before any anchor", ef.Display)
			}
			var enh *video.YUV
			if lastAnchor.hasDelta() {
				enh = d.picture(s.W, s.H)
			}
			pair, err := decodePFrame(r, d.picture(s.W, s.H), enh, lastAnchor, qstep)
			if err != nil {
				return nil, fmt.Errorf("codec: P frame %d: %w", ef.Display, err)
			}
			pair.display = ef.Display
			d.Stats.PFrames++
			display = pair.enh
			d.retire(prevAnchor)
			prevAnchor, lastAnchor = lastAnchor, pair
		case FrameB:
			if prevAnchor == nil || lastAnchor == nil {
				return nil, fmt.Errorf("codec: B frame %d lacks two anchors", ef.Display)
			}
			// A B frame lies between its two anchors in display order; one
			// outside them lost an anchor (a stream cut between a B frame
			// and its backward reference) and would predict from the wrong
			// pictures.
			if ef.Display <= prevAnchor.display || ef.Display >= lastAnchor.display {
				return nil, fmt.Errorf("%w: B frame %d does not lie between its anchors %d and %d",
					ErrBitstream, ef.Display, prevAnchor.display, lastAnchor.display)
			}
			plain := d.picture(s.W, s.H)
			f, err := decodeBFrame(r, plain, prevAnchor, lastAnchor, qstep)
			if err != nil {
				return nil, fmt.Errorf("codec: B frame %d: %w", ef.Display, err)
			}
			if f != plain {
				d.recycle(plain)
			}
			d.Stats.BFrames++
			display = f
		default:
			return nil, fmt.Errorf("codec: unknown frame type %d", ef.Type)
		}
		d.Stats.Bits += len(ef.Data) * 8
		out[ef.Display] = display
	}
	for i, f := range out {
		if f == nil {
			return nil, fmt.Errorf("codec: display slot %d never decoded", i)
		}
	}
	d.retire(prevAnchor)
	d.retire(lastAnchor)
	frameCtr.Add(int64(len(s.Frames)))
	return out, nil
}

// frameSpan returns 1 + the maximum display index.
func frameSpan(s *Stream) int {
	maxDisplay := -1
	for _, f := range s.Frames {
		if f.Display > maxDisplay {
			maxDisplay = f.Display
		}
	}
	return maxDisplay + 1
}

// minFrameBits is the least a frame of the given type and size can
// occupy: the 6 QP bits, then for an I frame the deblock flag and two
// codes of at least one bit for each of the 24 4×4 blocks per macroblock,
// for a P or B frame two flags and a mode code per macroblock.
func minFrameBits(t FrameType, w, h int) int {
	mbs := (w / mbSize) * (h / mbSize)
	if t == FrameI {
		return 7 + 48*mbs
	}
	return 8 + mbs
}

// decodeIFrame reconstructs an I frame into f, writing every sample.
func decodeIFrame(r *BitReader, f *video.YUV, qstep float64) error {
	dbBit, err := r.ReadBit()
	if err != nil {
		return err
	}
	if err := decodePlaneIntra(r, f.Y, f.W, f.H, qstep); err != nil {
		return err
	}
	if err := decodePlaneIntra(r, f.U, f.ChromaW(), f.ChromaH(), qstep); err != nil {
		return err
	}
	if err := decodePlaneIntra(r, f.V, f.ChromaW(), f.ChromaH(), qstep); err != nil {
		return err
	}
	if dbBit == 1 {
		deblockFrame(f, qstep)
	}
	return nil
}

func decodePlaneIntra(r *BitReader, rec []uint8, pw, ph int, qstep float64) error {
	var levels, pred [16]int32
	for y := 0; y < ph; y += blockSize {
		for x := 0; x < pw; x += blockSize {
			mode, err := r.ReadUE()
			if err != nil {
				return err
			}
			if mode > intraH {
				return fmt.Errorf("%w: bad intra mode %d", ErrBitstream, mode)
			}
			if err := readLevels(r, &levels); err != nil {
				return err
			}
			intraPredict(rec, pw, x, y, int(mode), &pred)
			reconBlock(rec[y*pw+x:], pw, pred[:], blockSize, &levels, isCoded(&levels), qstep)
		}
	}
	return nil
}

// readMBLevels decodes all 24 coefficient blocks of a macroblock.
func readMBLevels(r *BitReader, lv *mbLevels) error {
	for i := range lv.blocks {
		if err := readLevels(r, &lv.blocks[i]); err != nil {
			return err
		}
		lv.coded[i] = isCoded(&lv.blocks[i])
	}
	return nil
}

// copyMB copies macroblock (mx, my) of src into dst — all that zero
// motion with no residual amounts to.
func copyMB(dst, src planes, mx, my int) {
	for y := my * mbSize; y < (my+1)*mbSize; y++ {
		o := y*dst.lw + mx*mbSize
		copy(dst.y[o:o+mbSize], src.y[o:])
	}
	for y := my * 8; y < (my+1)*8; y++ {
		o := y*dst.cw + mx*8
		copy(dst.u[o:o+8], src.u[o:])
		copy(dst.v[o:o+8], src.v[o:])
	}
}

// applyMBDelta adds the motion-compensated enhancement delta of ref to the
// plain macroblock reconstruction, writing the result into enh. The
// transfer is gated per 4×4 block: where the bitstream coded a residual,
// the encoder already corrected the block against its own (unenhanced)
// reference, so overwriting it with the enhancement delta would fight the
// coded correction — those blocks keep the plain reconstruction. Blocks
// with no coded residual (the vast majority at CRF-51-like rates) inherit
// the reference enhancement through motion compensation. Pass a second
// reference to average two deltas (bi-prediction for B frames).
//
// With one reference and full-pel motion an uncoded block's plain
// reconstruction is the fetched reference sample itself, so plain + delta
// = plain_ref + (enh_ref − plain_ref) is the enhanced reference sample,
// already in range: the block is a second motion-compensated copy, from
// ref.enh, and no delta plane is built. Interpolated and averaged deltas
// have no such identity and go through ref.deltas().
func applyMBDelta(plain, enh planes, mx, my int, coded *[24]bool, hp bool, s *mbScratch, ref *refPair, m mv, ref2 *refPair, m2 mv) {
	bi := ref2 != nil
	direct := !hp && !bi
	var d1, d2 [3][]int16
	if !direct {
		d1 = ref.deltas()
	}
	if bi {
		d2 = ref2.deltas()
	}
	refEnh := [3][]uint8{ref.enh.Y, ref.enh.U, ref.enh.V}
	dsts := [3][]uint8{enh.y, enh.u, enh.v}
	for pi, p := range mbParts(plain, mx, my, s) {
		if pi == 1 { // both chroma planes: the derived vectors, always full-pel
			m, m2, hp = chromaMV(m, hp), chromaMV(m2, hp), false
		}
		t0, t1 := s.t0[:p.size*p.size], s.t1[:p.size*p.size]
		if direct {
			fetchBlock(refEnh[pi], p.pw, p.ph, p.x0, p.y0, m, p.size, p.size, t0)
		} else {
			fetchMC(d1[pi], p.pw, p.ph, p.x0, p.y0, m, hp, p.size, p.size, t0)
		}
		if bi {
			fetchMC(d2[pi], p.pw, p.ph, p.x0, p.y0, m2, hp, p.size, p.size, t1)
		}
		for by := 0; by < p.size; by += blockSize {
			for bx := 0; bx < p.size; bx += blockSize {
				c := coded[p.first+by/blockSize*(p.size/blockSize)+bx/blockSize]
				for yy := by; yy < by+blockSize; yy++ {
					o := (p.y0+yy)*p.pw + p.x0 + bx
					src, dst := p.pix[o:o+blockSize], dsts[pi][o:o+blockSize]
					a, b := t0[yy*p.size+bx:][:blockSize], t1[yy*p.size+bx:][:blockSize]
					switch {
					case c:
						copy(dst, src)
					case direct:
						for i, v := range a {
							dst[i] = uint8(v)
						}
					case bi:
						for i, v := range src {
							dst[i] = clamp8(int32(v) + (a[i]+b[i]+1)/2)
						}
					default:
						for i, v := range src {
							dst[i] = clamp8(int32(v) + a[i])
						}
					}
				}
			}
		}
	}
}

func clamp8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// readInterFlags reads the half-pel and deblock flags that open a P or B
// frame.
func readInterFlags(r *BitReader) (hp, deblock bool, err error) {
	v, err := r.ReadBits(2)
	return v&2 != 0, v&1 != 0, err
}

// decodePFrame reconstructs a P frame's plain picture into f and, when
// ref carries an enhancement delta, its enhanced picture into enh (nil
// otherwise), writing every sample of each.
func decodePFrame(r *BitReader, f, enh *video.YUV, ref *refPair, qstep float64) (*refPair, error) {
	hp, deblock, err := readInterFlags(r)
	if err != nil {
		return nil, err
	}
	w, h := f.W, f.H
	pair := &refPair{plain: f, enh: f}
	refp, recp := framePlanes(ref.plain), framePlanes(f)
	carry := enh != nil
	var refEnhp, enhp planes
	if carry {
		pair.enh = enh
		refEnhp, enhp = framePlanes(ref.enh), framePlanes(enh)
	}
	mbW, mbH := w/mbSize, h/mbSize
	var s mbScratch
	var lv mbLevels
	for my := 0; my < mbH; my++ {
		predMV := mv{0, 0}
		for mx := 0; mx < mbW; mx++ {
			mode, err := r.ReadUE()
			if err != nil {
				return nil, err
			}
			switch mode {
			case mbSkip:
				// Zero motion, no residual: both reconstructions are the
				// co-located reference macroblock.
				copyMB(recp, refp, mx, my)
				if carry {
					copyMB(enhp, refEnhp, mx, my)
				}
				predMV = mv{0, 0}
			case mbCoded:
				dx, err := r.ReadSE()
				if err != nil {
					return nil, err
				}
				dy, err := r.ReadSE()
				if err != nil {
					return nil, err
				}
				m := mv{predMV.x + int(dx), predMV.y + int(dy)}
				if err := readMBLevels(r, &lv); err != nil {
					return nil, err
				}
				predictMB(refp, mx, my, m, hp, &s)
				reconMB(recp, mx, my, &s, &lv, qstep)
				if carry {
					applyMBDelta(recp, enhp, mx, my, &lv.coded, hp, &s, ref, m, nil, mv{})
				}
				predMV = m
			default:
				return nil, fmt.Errorf("%w: bad P macroblock mode %d", ErrBitstream, mode)
			}
		}
	}
	if deblock {
		deblockFrame(f, qstep)
		if carry {
			deblockFrame(pair.enh, qstep)
		}
	}
	return pair, nil
}

// decodeBFrame reconstructs a B frame's plain picture into f, writing
// every sample, and returns the picture to show: f itself, or, when an
// anchor carries an enhancement delta, a new enhanced picture.
func decodeBFrame(r *BitReader, f *video.YUV, fwd, bwd *refPair, qstep float64) (*video.YUV, error) {
	hp, deblock, err := readInterFlags(r)
	if err != nil {
		return nil, err
	}
	w, h := f.W, f.H
	fp, bp, recp := framePlanes(fwd.plain), framePlanes(bwd.plain), framePlanes(f)
	shown := f
	carry := fwd.hasDelta() || bwd.hasDelta()
	var enhp planes
	if carry {
		shown = video.NewYUV(w, h)
		enhp = framePlanes(shown)
	}
	mbW, mbH := w/mbSize, h/mbSize
	var s mbScratch
	var lv mbLevels
	for my := 0; my < mbH; my++ {
		predMV0, predMV1 := mv{0, 0}, mv{0, 0}
		for mx := 0; mx < mbW; mx++ {
			mode, err := r.ReadUE()
			if err != nil {
				return nil, err
			}
			var m0, m1 mv
			switch mode {
			case mbSkip:
				lv.coded = [24]bool{}
			case mbCoded:
				var d [4]int32
				for i := range d {
					v, err := r.ReadSE()
					if err != nil {
						return nil, err
					}
					d[i] = v
				}
				m0 = mv{predMV0.x + int(d[0]), predMV0.y + int(d[1])}
				m1 = mv{predMV1.x + int(d[2]), predMV1.y + int(d[3])}
				if err := readMBLevels(r, &lv); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("%w: bad B macroblock mode %d", ErrBitstream, mode)
			}
			predictMBBi(fp, bp, mx, my, m0, m1, hp, &s)
			reconMB(recp, mx, my, &s, &lv, qstep)
			predMV0, predMV1 = m0, m1
			if carry {
				applyMBDelta(recp, enhp, mx, my, &lv.coded, hp, &s, fwd, m0, bwd, m1)
			}
		}
	}
	if deblock {
		deblockFrame(f, qstep)
		if carry {
			deblockFrame(shown, qstep)
		}
	}
	return shown, nil
}
