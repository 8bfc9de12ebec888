package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Weight serialization formats. Both are position-based — loading
// requires a model with an identical parameter layout, which is how dcSR
// ships micro-model weights alongside video segments (the client knows
// each model's architecture from the stream manifest) — and start with a
// 4-byte magic and a uint32 parameter count, little-endian throughout:
//
//	dcW1 (float32): per parameter, its element count (uint32) and the raw
//	                float32 values.
//	dcW6 (int8 grid): per parameter, its element count and row count
//	                (uint32 each); a bias (one dimension) has 0 rows and
//	                its raw float32 values follow, every other parameter
//	                has one row per dim-0 slice (a convolution's output
//	                channels) and its row scales ([rows]float32, each
//	                finite and positive) then one int8 code in [−127, 127]
//	                per element follow.
//
// A dcW6 payload is the int8 grid int8 inference runs, about a quarter of
// the dcW1 size: loading it pins the grid (int8Grid) and sets W to its
// dequantization, so QuantizeInt8 arms exactly the shipped codes and
// scales. The code −128 is refused although every int8 lane is exact for
// it (the VNNI and AVX2 offset correction 128·Σw holds for any int8
// weight, and the SWAR lane's biased operand stays in [0, 255]):
// QuantizeInt8 is symmetric and never emits it, so a payload carrying one
// was not written by this encoder.

var (
	weightsMagic = [4]byte{'d', 'c', 'W', '1'}
	gridMagic    = [4]byte{'d', 'c', 'W', '6'}
)

// SaveWeights writes every parameter in ps to w as a dcW1 payload.
func SaveWeights(w io.Writer, ps []*Param) error {
	if _, err := w.Write(weightsMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ps))); err != nil {
		return err
	}
	for _, p := range ps {
		if err := binary.Write(w, binary.LittleEndian, uint32(p.W.Len())); err != nil {
			return err
		}
		if _, err := w.Write(appendFloats(make([]byte, 0, 4*p.W.Len()), p.W.Data)); err != nil {
			return err
		}
	}
	return nil
}

// appendFloats appends v to b as little-endian float32 bits.
func appendFloats(b []byte, v []float32) []byte {
	for _, f := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
	}
	return b
}

// gridRows is how many rows a parameter's int8 grid has: one per dim-0
// slice of a parameter of two or more dimensions, none (it stays
// float32) for a bias.
func gridRows(p *Param) int {
	if len(p.W.Shape) >= 2 {
		return p.W.Shape[0]
	}
	return 0
}

// IsGridPayload reports whether data is a dcW6 (int8-grid) payload.
func IsGridPayload(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == gridMagic
}

// EncodeWeightsGrid serializes ps as a dcW6 payload. Every parameter with
// rows (gridRows) must carry its pinned grid (Conv2D.SnapInt8); biases
// ship as float32.
func EncodeWeightsGrid(ps []*Param) ([]byte, error) {
	b := binary.LittleEndian.AppendUint32(append([]byte(nil), gridMagic[:]...), uint32(len(ps)))
	for i, p := range ps {
		rows := gridRows(p)
		b = binary.LittleEndian.AppendUint32(b, uint32(p.W.Len()))
		b = binary.LittleEndian.AppendUint32(b, uint32(rows))
		if rows == 0 {
			b = appendFloats(b, p.W.Data)
			continue
		}
		g := p.grid
		if g == nil || len(g.codes) != p.W.Len() || len(g.scales) != rows {
			return nil, fmt.Errorf("nn: param %d (%q) has no pinned int8 grid", i, p.Name)
		}
		b = appendFloats(b, g.scales)
		for _, c := range g.codes {
			b = append(b, byte(c))
		}
	}
	return b, nil
}

// LoadWeights reads one dcW1 or dcW6 payload (by its magic) into ps. The
// parameter count, every parameter's size and, for dcW6, every row count
// must match ps exactly, and the reader must end with the payload. A dcW1
// payload drops each parameter's grid; a dcW6 one pins it. Every size is
// checked against ps before anything is allocated, so what a payload
// declares never sizes an allocation.
func LoadWeights(r io.Reader, ps []*Param) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	magic := [4]byte(hdr[:4])
	if magic != weightsMagic && magic != gridMagic {
		return fmt.Errorf("nn: bad weights magic %q", magic[:])
	}
	if count := binary.LittleEndian.Uint32(hdr[4:]); int64(count) != int64(len(ps)) {
		return fmt.Errorf("nn: weights hold %d params, model has %d", count, len(ps))
	}
	for _, p := range ps {
		if err := readCount(r, p, "size", p.W.Len()); err != nil {
			return err
		}
		rows := 0
		if magic == gridMagic {
			rows = gridRows(p)
			if err := readCount(r, p, "row count", rows); err != nil {
				return err
			}
		}
		var err error
		if rows == 0 {
			p.grid = nil
			err = readFloats(r, p.W.Data)
		} else {
			err = readGrid(r, p, rows)
		}
		if err != nil {
			return err
		}
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); !errors.Is(err, io.EOF) {
		if err != nil {
			return err
		}
		return errors.New("nn: weights payload has trailing bytes")
	}
	return nil
}

// readCount reads one uint32 field and checks it against want.
func readCount(r io.Reader, p *Param, field string, want int) error {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(b[:]); int64(got) != int64(want) {
		return fmt.Errorf("nn: param %q %s mismatch: file %d, model %d", p.Name, field, got, want)
	}
	return nil
}

// readFloats fills dst from r.
func readFloats(r io.Reader, dst []float32) error {
	buf := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

// readGrid reads the scales and codes of one dcW6 parameter of rows rows
// and pins them to p, checking the whole grid before p changes.
func readGrid(r io.Reader, p *Param, rows int) error {
	g := &int8Grid{codes: make([]int8, p.W.Len()), scales: make([]float32, rows)}
	if err := readFloats(r, g.scales); err != nil {
		return err
	}
	for i, s := range g.scales {
		if !(s > 0) || s*127 > math.MaxFloat32 {
			return fmt.Errorf("nn: param %q row %d scale is %v, want a finite positive scale whose ×127 stays finite", p.Name, i, s)
		}
	}
	codes := make([]byte, len(g.codes))
	if _, err := io.ReadFull(r, codes); err != nil {
		return err
	}
	for i, c := range codes {
		if c == 0x80 {
			return fmt.Errorf("nn: param %q code %d is −128, outside the symmetric grid", p.Name, i)
		}
		g.codes[i] = int8(c)
	}
	p.pin(g)
	return nil
}

// WeightsSize returns the exact number of bytes SaveWeights would emit for
// ps. This is the "model download size" used throughout the bandwidth
// experiments (paper Table 1 and Fig 10).
func WeightsSize(ps []*Param) int {
	n := 4 + 4 // magic + count
	for _, p := range ps {
		n += 4 + 4*p.W.Len()
	}
	return n
}

// EncodeWeights serializes ps to a dcW1 byte slice.
func EncodeWeights(ps []*Param) []byte {
	var buf bytes.Buffer
	buf.Grow(WeightsSize(ps))
	if err := SaveWeights(&buf, ps); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// CopyWeights copies parameter values from src into dst, dropping dst's
// grids. Layouts must match.
func CopyWeights(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyWeights param count mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if dst[i].W.Len() != src[i].W.Len() {
			return fmt.Errorf("nn: CopyWeights param %d size mismatch", i)
		}
		dst[i].grid = nil
		copy(dst[i].W.Data, src[i].W.Data)
	}
	return nil
}
