// Package codec implements the simplified H.264-style hybrid video codec
// the dcSR reproduction is built on: I/P/B frame types in a group-of-
// pictures structure, 16×16 macroblocks with full- or half-pel motion
// compensation, a 4×4 float64 DCT with QP-driven quantization (the
// CRF-style rate/quality knob), zigzag + Exp-Golomb entropy coding, and a
// decoder with a decoded-picture buffer exposing the I-frame enhancement
// hook that client-side dcSR patches into FFMPEG in the paper (Fig 6).
//
// The codec is not bit-compatible with H.264 — it is a faithful structural
// stand-in: P and B frames reference I frames through motion-compensated
// prediction, so enhancing the I frame in the DPB propagates quality to the
// rest of the GOP exactly as the paper's insight requires.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// BitWriter writes a most-significant-bit-first bitstream.
type BitWriter struct {
	buf  []byte
	acc  uint64 // pending bits in the low nbit positions; higher bits are stale
	nbit uint   // < 8 between calls
}

// NewBitWriter returns an empty BitWriter.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// put appends the low n ≤ 32 bits of v (which has no higher bits set).
func (w *BitWriter) put(v uint64, n uint) {
	w.acc = w.acc<<n | v
	w.nbit += n
	for w.nbit >= 8 {
		w.nbit -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nbit))
	}
}

// WriteBit appends a single bit.
func (w *BitWriter) WriteBit(b uint) { w.put(uint64(b&1), 1) }

// WriteBits appends the low n bits of v, most significant first.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	for n > 32 {
		n -= 32
		w.put(uint64(uint32(v>>n)), 32)
	}
	w.put(v&(1<<n-1), n)
}

// WriteUE appends v in unsigned Exp-Golomb code.
func (w *BitWriter) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x)) - 1
	w.WriteBits(x, 2*n+1) // n leading zeros, then the n+1 bits of x
}

// WriteSE appends v in signed Exp-Golomb code (0, 1, −1, 2, −2, …).
func (w *BitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.WriteUE(u)
}

// Bytes flushes any partial byte (zero-padded) and returns the stream.
func (w *BitWriter) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	if w.nbit > 0 {
		out = append(out, byte(w.acc<<(8-w.nbit)))
	}
	return out
}

// ErrBitstream is returned when a bitstream is truncated or malformed.
var ErrBitstream = errors.New("codec: malformed bitstream")

// BitReader reads a most-significant-bit-first bitstream.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader wraps buf for reading.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// peek returns the unread bits left-aligned, zero-filled past the end of
// the stream; at least 57 of them are real when that many remain.
func (r *BitReader) peek() uint64 {
	i := r.pos >> 3
	var v uint64
	if i+8 <= len(r.buf) {
		v = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for k, b := range r.buf[i:] {
			v |= uint64(b) << (56 - 8*uint(k))
		}
	}
	return v << uint(r.pos&7)
}

// take consumes n ≤ 57 bits. A short stream is consumed to its end, as
// reading it bit by bit would.
func (r *BitReader) take(n uint) (uint64, error) {
	if left := len(r.buf)*8 - r.pos; int(n) > left {
		r.pos += left
		return 0, ErrBitstream
	}
	if n == 0 {
		return 0, nil
	}
	v := r.peek() >> (64 - n)
	r.pos += int(n)
	return v, nil
}

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (uint, error) {
	v, err := r.take(1)
	return uint(v), err
}

// ReadBits consumes n bits and returns them as an unsigned integer.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for ; n > 32; n -= 32 {
		hi, err := r.take(32)
		if err != nil {
			return 0, err
		}
		v = v<<32 | hi
	}
	lo, err := r.take(n)
	if err != nil {
		return 0, err
	}
	return v<<n | lo, nil
}

// ReadUE consumes an unsigned Exp-Golomb code.
func (r *BitReader) ReadUE() (uint32, error) {
	// Zero fill past the end reads as more prefix, which take then refuses.
	n := uint(bits.LeadingZeros64(r.peek()))
	if n > 32 {
		if _, err := r.take(33); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: runaway exp-golomb prefix", ErrBitstream)
	}
	if n <= 28 {
		x, err := r.take(2*n + 1) // the code is x = value+1 in n+1 bits
		if err != nil {
			return 0, err
		}
		return uint32(x - 1), nil
	}
	if _, err := r.take(n + 1); err != nil {
		return 0, err
	}
	rest, err := r.take(n)
	if err != nil {
		return 0, err
	}
	if n == 32 && rest != 0 {
		return 0, fmt.Errorf("%w: exp-golomb value overflows 32 bits", ErrBitstream)
	}
	return uint32(1<<n-1) + uint32(rest), nil
}

// ReadSE consumes a signed Exp-Golomb code.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}
