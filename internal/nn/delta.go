package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Delta weight format (dcW5). SRVC ships one lightweight model plus small
// updates instead of N independent models; dcSR's analogue represents every
// cluster model as a shared backbone plus a per-cluster residual. The dcW5
// payload carries (backbone digest, per-parameter int8-quantized residuals):
//
//	magic 'dcW5' (4 bytes)
//	backbone digest (32 bytes) — SHA-256 of the backbone's dcW1 encoding
//	param count (uint32)
//	per parameter:
//	  element count (uint32)
//	  scale count (uint32) — one per dim-0 slice for ≥2-dim params, else 1
//	  scales ([scale count]float32, little-endian)
//	  mode (byte) — 0 dense (one code byte per element),
//	                1 sparse (uint32 nonzero count, then uint32 index +
//	                int8 code per nonzero; chosen when strictly smaller)
//
// Residuals are quantized per channel (scale = maxabs/127 per dim-0
// slice), so a delta is ~4× smaller than the dcW1 full encoding even when
// every weight moved, and collapses to a few bytes per parameter when the
// models agree.
// The encoding is lossy with respect to the residual, deterministic with
// respect to the payload: ApplyWeightsDelta reconstructs
// backbone + scale×code in float32 (codes of 0 copy the backbone value
// bit-exactly), so delta applied to backbone reproduces the same weights on
// every decoder — the delta_encode pipeline stage makes that reconstruction
// the model's canonical weights, and clients assemble bit-identical models.

var magicDelta = [4]byte{'d', 'c', 'W', '5'}

// deltaDigestSize is the length of the backbone digest embedded in a dcW5
// payload (SHA-256).
const deltaDigestSize = sha256.Size

// deltaBackboneDigest extracts the backbone digest a dcW5 payload was
// encoded against without decoding the residuals.
func deltaBackboneDigest(delta []byte) ([deltaDigestSize]byte, error) {
	var d [deltaDigestSize]byte
	if len(delta) < 4+deltaDigestSize || [4]byte(delta[:4]) != magicDelta {
		return d, fmt.Errorf("nn: not a dcW5 delta payload")
	}
	copy(d[:], delta[4:4+deltaDigestSize])
	return d, nil
}

// reconstructDelta writes the canonical reconstruction of one channel into
// out: backbone plus the dequantized residual, computed in float32. A zero
// code (or zero scale) copies the backbone value without arithmetic, so
// untouched weights survive bit-exactly (including negative zero). Both the
// encoder and ApplyWeightsDelta go through this function, which is what
// makes the round trip exact by construction. The residual is rounded on
// its own before the add (the explicit conversion): a build that fused the
// multiply-add would round once instead, reconstruct other bits than the
// origin, fail every viewer's digest check and silently fall back to full
// fetches.
func reconstructDelta(out, backbone []float32, codes []int8, scale float32) {
	for i := range out {
		if codes[i] == 0 || scale == 0 {
			out[i] = backbone[i]
			continue
		}
		out[i] = backbone[i] + float32(scale*float32(codes[i]))
	}
}

// reconstruct is reconstructDelta, a variable only so that a test can
// stand in the rounding of a build that fuses the multiply-add.
var reconstruct = reconstructDelta

// scaleCount returns how many per-channel scales a parameter's residual
// gets: one per dim-0 slice for ≥2-dimensional parameters (conv and dense
// weight rows), one for everything else (biases).
func scaleCount(p *Param) int {
	if len(p.W.Shape) >= 2 && p.W.Shape[0] > 0 {
		return p.W.Shape[0]
	}
	return 1
}

// EncodeWeightsDelta encodes target as a dcW5 delta against backbone. The
// two parameter sets must share an identical layout. The delta embeds the
// SHA-256 of the backbone's dcW1 encoding so decoders can reject a
// mismatched backbone. Note the quantization is lossy: the weights the
// delta reproduces are the reconstruction backbone + scale×code, not the
// original target — callers that adopt the delta must also adopt the
// reconstruction (see ApplyWeightsDelta) as the model's canonical weights.
func EncodeWeightsDelta(backbone, target []*Param) ([]byte, error) {
	if len(backbone) != len(target) {
		return nil, fmt.Errorf("nn: delta param count mismatch %d vs %d", len(backbone), len(target))
	}
	digest := WeightsDigest(backbone)
	buf := append(append([]byte(nil), magicDelta[:]...), digest[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(target)))
	largest := largestParam(target)
	scaleBuf, codeBuf := make([]float32, largest), make([]int8, largest)
	for pi, t := range target {
		b := backbone[pi]
		if b.W.Len() != t.W.Len() {
			return nil, fmt.Errorf("nn: delta param %d size mismatch: backbone %d, target %d", pi, b.W.Len(), t.W.Len())
		}
		n := t.W.Len()
		sc := scaleCount(t)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sc))
		rowLen := n / sc
		scales, codes := scaleBuf[:sc], codeBuf[:n]
		clear(codes)
		nz := 0
		for ch := 0; ch < sc; ch++ {
			maxAbs := 0.0
			for i := ch * rowLen; i < (ch+1)*rowLen; i++ {
				r := math.Abs(float64(t.W.Data[i]) - float64(b.W.Data[i]))
				if r > maxAbs { // not math.Max: a NaN residual must not become the scale
					maxAbs = r
				}
			}
			scale := float32(maxAbs / 127)
			scales[ch] = scale
			if scale == 0 {
				continue
			}
			for i := ch * rowLen; i < (ch+1)*rowLen; i++ {
				r := float64(t.W.Data[i]) - float64(b.W.Data[i])
				q := math.Round(r / float64(scale))
				if q > 127 {
					q = 127
				}
				if q < -127 {
					q = -127
				}
				codes[i] = int8(q)
				if codes[i] != 0 {
					nz++
				}
			}
		}
		buf = appendFloats(buf, scales)
		if sparse := 4 + 5*nz; sparse < n {
			buf = binary.LittleEndian.AppendUint32(append(buf, 1), uint32(nz))
			for i, c := range codes {
				if c != 0 {
					buf = append(binary.LittleEndian.AppendUint32(buf, uint32(i)), byte(c))
				}
			}
		} else {
			buf = append(buf, 0)
			for _, c := range codes {
				buf = append(buf, byte(c))
			}
		}
	}
	return buf, nil
}

// ApplyWeightsDelta reconstructs full weights from a backbone and a dcW5
// delta payload, writing the result into dst (whose layout must match the
// backbone's). It verifies the payload's embedded digest against the
// backbone before touching dst, so applying a delta to the wrong backbone
// fails instead of producing garbage weights. The reconstruction is
// deterministic: every decoder produces bit-identical weights. The scales
// and codes decode into buffers sized once from the largest parameter of
// backbone, so what a payload declares never sizes an allocation.
func ApplyWeightsDelta(backbone []*Param, delta []byte, dst []*Param) error {
	want, err := deltaBackboneDigest(delta)
	if err != nil {
		return err
	}
	if got := WeightsDigest(backbone); got != want {
		return fmt.Errorf("nn: delta backbone digest mismatch: payload %x, backbone %x", want[:8], got[:8])
	}
	if len(dst) != len(backbone) {
		return fmt.Errorf("nn: delta dst param count mismatch %d vs %d", len(dst), len(backbone))
	}
	largest := largestParam(backbone)
	scratch := make([]byte, 4*max(largest, 1))
	r := bytes.NewReader(delta[4+deltaDigestSize:])
	count, err := readU32(r, scratch)
	if err != nil {
		return err
	}
	if int64(count) != int64(len(backbone)) {
		return fmt.Errorf("nn: delta holds %d params, model has %d", count, len(backbone))
	}
	scaleBuf, codeBuf := make([]float32, largest), make([]int8, largest)
	for pi, b := range backbone {
		d := dst[pi]
		if d.W.Len() != b.W.Len() {
			return fmt.Errorf("nn: delta dst param %d size mismatch: backbone %d, dst %d", pi, b.W.Len(), d.W.Len())
		}
		n := b.W.Len()
		if err := readCount(r, scratch, b, "size", n); err != nil {
			return err
		}
		sc, err := readU32(r, scratch)
		if err != nil {
			return err
		}
		// A parameter holds at least one value, so the check bounds sc
		// by n and the scales fit their buffer.
		if sc == 0 || uint32(n)%sc != 0 {
			return fmt.Errorf("nn: delta param %d has %d scales for %d values", pi, sc, n)
		}
		scales, codes := scaleBuf[:sc], codeBuf[:n]
		if err := readFloats(r, scales, scratch); err != nil {
			return err
		}
		mode, err := r.ReadByte()
		if err != nil {
			return err
		}
		switch mode {
		case 0:
			if _, err := io.ReadFull(r, scratch[:n]); err != nil {
				return err
			}
			for i, c := range scratch[:n] {
				codes[i] = int8(c)
			}
		case 1:
			clear(codes)
			nz, err := readU32(r, scratch)
			if err != nil {
				return err
			}
			for j := uint32(0); j < nz; j++ {
				idx, err := readU32(r, scratch)
				if err != nil {
					return err
				}
				c, err := r.ReadByte()
				if err != nil {
					return err
				}
				if idx >= uint32(n) {
					return fmt.Errorf("nn: delta param %d sparse index %d out of range %d", pi, idx, n)
				}
				codes[idx] = int8(c)
			}
		default:
			return fmt.Errorf("nn: delta param %d has unknown mode %d", pi, mode)
		}
		d.grid = nil
		rowLen := n / int(sc)
		for ch := range scales {
			lo, hi := ch*rowLen, (ch+1)*rowLen
			reconstruct(d.W.Data[lo:hi], b.W.Data[lo:hi], codes[lo:hi], scales[ch])
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("nn: delta payload has %d trailing bytes", r.Len())
	}
	return nil
}
