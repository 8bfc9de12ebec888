package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Quantized weight formats. Micro-model downloads are pure overhead for
// the client, so shrinking them matters at scale; NEMO ships fp16 models
// for the same reason. Two formats are provided:
//
//   - Float16: IEEE 754 half precision, 2 bytes/weight, visually lossless
//     for SR weights.
//   - Int8: symmetric per-tensor linear quantization (scale = maxabs/127),
//     1 byte/weight plus one float32 scale per tensor.
//
// Quantization is applied at serialization time only; decoded weights
// are float32.

// Quantization selects a weight serialization precision.
type Quantization int

// Supported precisions.
const (
	QuantNone Quantization = iota // float32 (SaveWeights format)
	QuantF16
	QuantInt8
)

// String names the quantization mode.
func (q Quantization) String() string {
	switch q {
	case QuantNone:
		return "fp32"
	case QuantF16:
		return "fp16"
	case QuantInt8:
		return "int8"
	default:
		return fmt.Sprintf("Quantization(%d)", int(q))
	}
}

var (
	magicF16  = [4]byte{'d', 'c', 'W', '2'}
	magicInt8 = [4]byte{'d', 'c', 'W', '3'}
)

// Float32To16 converts a float32 to IEEE 754 half precision bits with
// round-to-nearest; overflow saturates to ±Inf, subnormals flush through
// the standard denormal path.
func Float32To16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	switch {
	case exp >= 31: // overflow or inf/nan
		if b&0x7fffffff > 0x7f800000 { // NaN
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign
		}
		man |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(man >> shift)
		if man>>(shift-1)&1 == 1 { // round
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(man>>13)
		if man&0x1000 != 0 { // round
			half++
		}
		return half
	}
}

// Float16To32 expands half-precision bits to float32.
func Float16To32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | e<<23 | man<<13)
	case exp == 31:
		return math.Float32frombits(sign | 0xff<<23 | man<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | man<<13)
	}
}

// SaveWeightsQuantized writes parameters at the requested precision.
// QuantNone falls through to SaveWeights.
func SaveWeightsQuantized(w io.Writer, ps []*Param, q Quantization) error {
	switch q {
	case QuantNone:
		return SaveWeights(w, ps)
	case QuantF16:
		if _, err := w.Write(magicF16[:]); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(ps))); err != nil {
			return err
		}
		for _, p := range ps {
			if err := binary.Write(w, binary.LittleEndian, uint32(p.W.Len())); err != nil {
				return err
			}
			buf := make([]byte, 2*p.W.Len())
			for i, v := range p.W.Data {
				binary.LittleEndian.PutUint16(buf[2*i:], Float32To16(v))
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	case QuantInt8:
		if _, err := w.Write(magicInt8[:]); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(ps))); err != nil {
			return err
		}
		for _, p := range ps {
			if err := binary.Write(w, binary.LittleEndian, uint32(p.W.Len())); err != nil {
				return err
			}
			scale := p.W.MaxAbs() / 127
			if scale == 0 {
				scale = 1
			}
			if err := binary.Write(w, binary.LittleEndian, scale); err != nil {
				return err
			}
			buf := make([]byte, p.W.Len())
			for i, v := range p.W.Data {
				q := math.Round(float64(v / scale))
				if q > 127 {
					q = 127
				}
				if q < -127 {
					q = -127
				}
				buf[i] = byte(int8(q))
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("nn: unknown quantization %d", q)
	}
}

// LoadWeightsAny reads weights written by SaveWeights or
// SaveWeightsQuantized, detecting the format from the magic.
func LoadWeightsAny(r io.Reader, ps []*Param) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return err
	}
	switch magic {
	case weightsMagic:
		return LoadWeights(io.MultiReader(bytes.NewReader(magic[:]), r), ps)
	case magicDelta:
		return fmt.Errorf("nn: dcW5 delta payload needs a backbone; use ApplyWeightsDelta")
	case magicF16, magicInt8:
		var count uint32
		if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
			return err
		}
		if int(count) != len(ps) {
			return fmt.Errorf("nn: weights hold %d params, model has %d", count, len(ps))
		}
		for _, p := range ps {
			var n uint32
			if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
				return err
			}
			if int(n) != p.W.Len() {
				return fmt.Errorf("nn: param %q size mismatch: file %d, model %d", p.Name, n, p.W.Len())
			}
			switch magic {
			case magicF16:
				buf := make([]byte, 2*n)
				if _, err := io.ReadFull(r, buf); err != nil {
					return err
				}
				for i := range p.W.Data {
					p.W.Data[i] = Float16To32(binary.LittleEndian.Uint16(buf[2*i:]))
				}
			default: // magicInt8
				var scale float32
				if err := binary.Read(r, binary.LittleEndian, &scale); err != nil {
					return err
				}
				buf := make([]byte, n)
				if _, err := io.ReadFull(r, buf); err != nil {
					return err
				}
				for i := range p.W.Data {
					p.W.Data[i] = float32(int8(buf[i])) * scale
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("nn: unknown weights magic %q", magic[:])
	}
}

// QuantizedSize returns the exact byte size SaveWeightsQuantized emits.
func QuantizedSize(ps []*Param, q Quantization) int {
	switch q {
	case QuantNone:
		return WeightsSize(ps)
	case QuantF16:
		n := 8
		for _, p := range ps {
			n += 4 + 2*p.W.Len()
		}
		return n
	case QuantInt8:
		n := 8
		for _, p := range ps {
			n += 4 + 4 + p.W.Len()
		}
		return n
	default:
		return 0
	}
}

// EncodeWeightsQuantized serializes ps at the given precision.
func EncodeWeightsQuantized(ps []*Param, q Quantization) []byte {
	var buf bytes.Buffer
	buf.Grow(QuantizedSize(ps, q))
	if err := SaveWeightsQuantized(&buf, ps, q); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}
