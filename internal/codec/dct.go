package codec

import "math"

// 4×4 DCT-II transform pair and QP-driven scalar quantization. QP follows
// the H.264 convention: quantizer step doubles every 6 QP steps, covering
// the same 0–51 range FFMPEG's CRF exposes (the paper generates its
// low-quality inputs with CRF 51).

const blockSize = 4

var dctBasis [blockSize][blockSize]float64

func init() {
	for k := 0; k < blockSize; k++ {
		var c float64
		if k == 0 {
			c = math.Sqrt(1.0 / blockSize)
		} else {
			c = math.Sqrt(2.0 / blockSize)
		}
		for n := 0; n < blockSize; n++ {
			dctBasis[k][n] = c * math.Cos(math.Pi*float64(k)*(2*float64(n)+1)/(2*blockSize))
		}
	}
}

// fdct4 computes the forward 4×4 DCT of a residual block (row-major 16).
func fdct4(in *[16]float64, out *[16]float64) {
	var tmp [16]float64
	// Rows.
	for y := 0; y < 4; y++ {
		for k := 0; k < 4; k++ {
			var s float64
			for n := 0; n < 4; n++ {
				s += float64(dctBasis[k][n] * in[y*4+n])
			}
			tmp[y*4+k] = s
		}
	}
	// Columns.
	for x := 0; x < 4; x++ {
		for k := 0; k < 4; k++ {
			var s float64
			for n := 0; n < 4; n++ {
				s += float64(dctBasis[k][n] * tmp[n*4+x])
			}
			out[k*4+x] = s
		}
	}
}

// idct4 computes the inverse 4×4 DCT.
func idct4(in *[16]float64, out *[16]float64) {
	var tmp [16]float64
	// Columns.
	for x := 0; x < 4; x++ {
		for n := 0; n < 4; n++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += float64(dctBasis[k][n] * in[k*4+x])
			}
			tmp[n*4+x] = s
		}
	}
	// Rows.
	for y := 0; y < 4; y++ {
		for n := 0; n < 4; n++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += float64(dctBasis[k][n] * tmp[y*4+k])
			}
			out[y*4+n] = s
		}
	}
}

// QStep returns the quantizer step size for a QP in [0, 51].
func QStep(qp int) float64 {
	if qp < 0 {
		qp = 0
	}
	if qp > 51 {
		qp = 51
	}
	return 0.625 * math.Pow(2, float64(qp)/6.0)
}

// Quantizer rounding offsets. Intra blocks use ordinary rounding; inter
// residuals use a deadzone (smaller offset) so marginal corrections are
// dropped rather than coded — the cheap stand-in for the rate-distortion
// decisions of production encoders, and what keeps P/B frames from
// spending bits refreshing reference quantization noise.
const (
	roundIntra = 0.5
	roundInter = 1.0 / 3.0
)

// maxBasis2 bounds the magnitude of every 2-D basis product
// dctBasis[k][n]·dctBasis[l][m]: the largest 1-D entry is √½·cos(π/8) ≈
// 0.65328 and its square ≈ 0.426777.
const maxBasis2 = 0.4268

// quantizeBlock forward-transforms and quantizes a residual block into
// integer levels using the given deadzone rounding offset. Returns the
// number of nonzero levels.
//
// Each coefficient is Σ basis·res, so |coef| ≤ maxBasis2·Σ|res|. A level
// is 0 exactly when |coef|/qstep + roundOff < 1; when the bound satisfies
// that with 1e-6 to spare — the transform's own rounding error on 8-bit
// residuals is below 1e-11 — every level is 0 and the transform is
// skipped. Most inter residuals at streaming QPs end here.
func quantizeBlock(res *[16]float64, qstep, roundOff float64, levels *[16]int32) int {
	var sum float64
	for _, v := range res {
		sum += math.Abs(v)
	}
	if maxBasis2*sum/qstep+roundOff < 1-1e-6 {
		*levels = [16]int32{}
		return 0
	}
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

// dequantizeBlock reconstructs a residual block from quantized levels.
func dequantizeBlock(levels *[16]int32, qstep float64, res *[16]float64) {
	var coef [16]float64
	for i := 0; i < 16; i++ {
		coef[i] = float64(levels[i]) * qstep
	}
	idct4(&coef, res)
}

// isCoded reports whether a block has a nonzero level. (A hostile stream
// may announce levels and then code each as 0; such a block is not coded.)
func isCoded(levels *[16]int32) bool {
	var any int32
	for _, v := range levels {
		any |= v
	}
	return any != 0
}

// reconBlock writes prediction + dequantized residual for one 4×4 block
// into dst (rows stride apart); pred rows are predStride apart. A block
// that is not coded passes the prediction straight through: its levels
// dequantize and inverse-transform to exactly 0, and clampPix(p+0) == p
// for the p ∈ [0, 255] every predictor produces.
func reconBlock(dst []uint8, stride int, pred []int32, predStride int, levels *[16]int32, coded bool, qstep float64) {
	if !coded {
		for yy := 0; yy < blockSize; yy++ {
			d := dst[yy*stride:][:blockSize]
			for xx, p := range pred[yy*predStride:][:blockSize] {
				d[xx] = uint8(p)
			}
		}
		return
	}
	var res [16]float64
	dequantizeBlock(levels, qstep, &res)
	for yy := 0; yy < blockSize; yy++ {
		d := dst[yy*stride:][:blockSize]
		for xx, p := range pred[yy*predStride:][:blockSize] {
			d[xx] = clampPix(float64(p) + res[yy*blockSize+xx])
		}
	}
}

// zigzag4 is the scan order for 4×4 coefficient blocks.
var zigzag4 = [16]int{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}

// writeLevels entropy-codes quantized levels: ue(#nonzero), then for each
// nonzero coefficient in zigzag order ue(zero-run before it) and se(level).
func writeLevels(w *BitWriter, levels *[16]int32) {
	nz := 0
	for _, v := range levels {
		if v != 0 {
			nz++
		}
	}
	w.WriteUE(uint32(nz))
	if nz == 0 {
		return
	}
	run := uint32(0)
	for _, zi := range zigzag4 {
		v := levels[zi]
		if v == 0 {
			run++
			continue
		}
		w.WriteUE(run)
		w.WriteSE(v)
		run = 0
	}
}

// readLevels decodes what writeLevels produced.
func readLevels(r *BitReader, levels *[16]int32) error {
	for i := range levels {
		levels[i] = 0
	}
	nz, err := r.ReadUE()
	if err != nil {
		return err
	}
	if nz > 16 {
		return ErrBitstream
	}
	pos := 0
	for k := uint32(0); k < nz; k++ {
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		pos += int(run)
		if pos >= 16 {
			return ErrBitstream
		}
		v, err := r.ReadSE()
		if err != nil {
			return err
		}
		levels[zigzag4[pos]] = v
		pos++
	}
	return nil
}
