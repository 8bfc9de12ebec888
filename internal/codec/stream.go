package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// FrameType classifies a coded frame within the GOP structure.
type FrameType uint8

// Frame types. I frames are self-contained; P frames reference the previous
// anchor (I or P); B frames reference the surrounding anchors in both
// directions (paper §1, "Insights").
const (
	FrameI FrameType = iota
	FrameP
	FrameB
)

// String returns "I", "P" or "B".
func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// EncodedFrame is one coded picture in coding order.
type EncodedFrame struct {
	Type    FrameType
	Display int // display-order index within the stream
	Data    []byte
}

// Stream is a coded video sequence: a small header plus frames in coding
// order. Display order is recovered from each frame's Display index.
type Stream struct {
	W, H   int
	FPS    int
	Frames []EncodedFrame
}

// Bytes returns the total serialized size in bytes; this is the number the
// bandwidth experiments (paper Fig 10) account for each video segment.
func (s *Stream) Bytes() int {
	n := len(streamMagic) + 4*3 + 4 // header + frame count
	for _, f := range s.Frames {
		n += 1 + 4 + 4 + len(f.Data)
	}
	return n
}

// FrameCount returns the number of coded frames.
func (s *Stream) FrameCount() int { return len(s.Frames) }

// CountType returns how many frames of type t the stream holds.
func (s *Stream) CountType(t FrameType) int {
	n := 0
	for _, f := range s.Frames {
		if f.Type == t {
			n++
		}
	}
	return n
}

var streamMagic = []byte("dcV1")

// Sanity bounds enforced when parsing untrusted streams: dimensions up to
// 8K, a day of video at 120 FPS. They exist so a corrupt length or index
// cannot make the decoder allocate unbounded memory.
const (
	maxDimension  = 7680 * 2
	maxFrameCount = 120 * 60 * 60 * 24
)

// Marshal serializes the stream to a byte slice.
func (s *Stream) Marshal() []byte {
	out := make([]byte, 0, s.Bytes())
	out = append(out, streamMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(s.W))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.H))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.FPS))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Frames)))
	for _, f := range s.Frames {
		out = append(out, byte(f.Type))
		out = binary.LittleEndian.AppendUint32(out, uint32(f.Display))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(f.Data)))
		out = append(out, f.Data...)
	}
	return out
}

// Unmarshal parses a stream serialized by Marshal. The frame bytes are
// copied once, and every frame's Data is a slice of that copy whose
// capacity ends with the frame, so an append to one never reaches the
// next. The frame table is sized by how many 9-byte frame headers the
// data can hold, never by the declared count alone.
func Unmarshal(data []byte) (*Stream, error) {
	if len(data) < len(streamMagic)+16 {
		return nil, fmt.Errorf("%w: short header", ErrBitstream)
	}
	if string(data[:4]) != string(streamMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrBitstream)
	}
	s := &Stream{
		W:   int(binary.LittleEndian.Uint32(data[4:])),
		H:   int(binary.LittleEndian.Uint32(data[8:])),
		FPS: int(binary.LittleEndian.Uint32(data[12:])),
	}
	if s.W <= 0 || s.H <= 0 || s.W > maxDimension || s.H > maxDimension {
		return nil, fmt.Errorf("%w: implausible dimensions %dx%d", ErrBitstream, s.W, s.H)
	}
	n := int(binary.LittleEndian.Uint32(data[16:]))
	if n > maxFrameCount {
		return nil, fmt.Errorf("%w: implausible frame count %d", ErrBitstream, n)
	}
	body := bytes.Clone(data[20:])
	s.Frames = make([]EncodedFrame, 0, min(n, len(body)/9))
	off := 0
	for i := 0; i < n; i++ {
		if off+9 > len(body) {
			return nil, fmt.Errorf("%w: truncated frame header", ErrBitstream)
		}
		f := EncodedFrame{Type: FrameType(body[off])}
		f.Display = int(binary.LittleEndian.Uint32(body[off+1:]))
		if f.Display < 0 || f.Display > maxFrameCount {
			return nil, fmt.Errorf("%w: implausible display index %d", ErrBitstream, f.Display)
		}
		sz := int(binary.LittleEndian.Uint32(body[off+5:]))
		off += 9
		if off+sz > len(body) {
			return nil, fmt.Errorf("%w: truncated frame payload", ErrBitstream)
		}
		f.Data = body[off : off+sz : off+sz]
		off += sz
		s.Frames = append(s.Frames, f)
	}
	return s, nil
}
