package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dcsr/internal/video"
)

// TestDecodeNeverPanicsOnCorruption flips random bits/bytes in a valid
// stream and asserts the decoder returns errors instead of panicking or
// allocating absurd amounts. This is the property a client needs when the
// network hands it garbage.
func TestDecodeNeverPanicsOnCorruption(t *testing.T) {
	frames := testClipYUV(t, 48, 32, 2, 77)
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 35, BFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	orig := st.Marshal()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), orig...)
		// Corrupt 1–8 random bytes.
		for k := 0; k < 1+rng.Intn(8); k++ {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: decoder panicked: %v", trial, r)
				}
			}()
			s2, err := Unmarshal(data)
			if err != nil {
				return // rejected at parse time: fine
			}
			var d Decoder
			_, _ = d.Decode(s2) // errors are fine; panics are not
		}()
	}
}

// TestDecodeNeverPanicsOnTruncation checks every truncation point of the
// container parses or fails cleanly.
func TestDecodeNeverPanicsOnTruncation(t *testing.T) {
	frames := testClipYUV(t, 32, 32, 1, 78)
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 40})
	if err != nil {
		t.Fatal(err)
	}
	orig := st.Marshal()
	step := len(orig)/64 + 1
	for cut := 0; cut < len(orig); cut += step {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut %d: panicked: %v", cut, r)
				}
			}()
			if s2, err := Unmarshal(orig[:cut]); err == nil {
				var d Decoder
				_, _ = d.Decode(s2)
			}
		}()
	}
}

// TestDecodeRandomGarbage feeds entirely random bytes.
func TestDecodeRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, rng.Intn(2000))
		rng.Read(data)
		// Make some trials look like streams (right magic).
		if trial%3 == 0 && len(data) >= 4 {
			copy(data, streamMagic)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panicked: %v", trial, r)
				}
			}()
			if s2, err := Unmarshal(data); err == nil {
				var d Decoder
				_, _ = d.Decode(s2)
			}
		}()
	}
}

// TestUnmarshalRejectsAbsurdHeaders confirms the sanity bounds.
func TestUnmarshalRejectsAbsurdHeaders(t *testing.T) {
	frames := []*video.YUV{video.NewYUV(32, 32)}
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 40})
	if err != nil {
		t.Fatal(err)
	}
	data := st.Marshal()
	// Absurd width.
	bad := append([]byte(nil), data...)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0x7f
	if _, err := Unmarshal(bad); err == nil {
		t.Error("absurd width accepted")
	}
	// Absurd display index.
	bad2 := append([]byte(nil), data...)
	bad2[21], bad2[22], bad2[23], bad2[24] = 0xff, 0xff, 0xff, 0x7f
	if _, err := Unmarshal(bad2); err == nil {
		t.Error("absurd display index accepted")
	}
}

// TestUnmarshalCopiesOnce: a parsed stream owns its frame bytes (a later
// write to the input moves none), each frame's Data ends its capacity
// with the frame (an append cannot reach the next), and a header that
// declares maxFrameCount frames over two frames' worth of bytes does not
// size the frame table by the count.
func TestUnmarshalCopiesOnce(t *testing.T) {
	st, err := Encode(testClipYUV(t, 32, 32, 3, 19), nil, 24, EncoderConfig{QP: 25})
	if err != nil {
		t.Fatal(err)
	}
	data := st.Marshal()
	parsed, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if !bytes.Equal(parsed.Marshal(), st.Marshal()) {
		t.Fatal("clearing Unmarshal's input changed the parsed stream")
	}
	for i, f := range parsed.Frames {
		if cap(f.Data) != len(f.Data) {
			t.Fatalf("frame %d: %d bytes with capacity %d", i, len(f.Data), cap(f.Data))
		}
	}

	hostile := append((&Stream{W: 16, H: 16, FPS: 30}).Marshal(), make([]byte, 2*9)...)
	binary.LittleEndian.PutUint32(hostile[16:], maxFrameCount)
	// A table sized by the count would be ≈ 400 MB; the bound leaves room
	// for what the runtime allocates on other goroutines meanwhile.
	var uerr error
	if got := allocatedBy(func() { _, uerr = Unmarshal(hostile) }); uerr == nil || got > 1<<20 {
		t.Fatalf("%d frames declared over 18 bytes: allocated %d B, err %v", maxFrameCount, got, uerr)
	}
}

// allocatedBy returns the bytes fn allocates (this goroutine and any it
// starts; the tests that use it run nothing else meanwhile).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRejectsFarDisplayIndex: one frame cannot fill display slot
// ten million, and finding that out must not cost a ten-million-slot table.
func TestDecodeRejectsFarDisplayIndex(t *testing.T) {
	s, err := Unmarshal((&Stream{W: 16, H: 16, FPS: 30, Frames: []EncodedFrame{{Type: FrameI, Display: maxFrameCount}}}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	got := allocatedBy(func() { _, derr = (&Decoder{}).Decode(s) })
	if !errors.Is(derr, ErrBitstream) {
		t.Fatalf("Decode = %v, want ErrBitstream", derr)
	}
	if got > 1<<20 {
		t.Fatalf("rejecting a %d-byte stream allocated %d bytes", s.Bytes(), got)
	}
}

// TestDecodeRejectsShortPayload: a frame whose payload cannot hold even
// the mandatory bits of its dimensions fails before its planes exist.
func TestDecodeRejectsShortPayload(t *testing.T) {
	one := video.NewYUV(16, 16)
	good, err := Encode([]*video.YUV{one, one}, nil, 30, EncoderConfig{QP: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    *Stream
	}{
		{"I", &Stream{W: 4096, H: 4096, FPS: 30, Frames: []EncodedFrame{{Type: FrameI, Data: []byte{0xff}}}}},
		{"P", &Stream{W: 16, H: 16, FPS: 30, Frames: []EncodedFrame{good.Frames[0], {Type: FrameP, Display: 1, Data: []byte{0xff}}}}},
		{"B", &Stream{W: 16, H: 16, FPS: 30, Frames: []EncodedFrame{good.Frames[0], good.Frames[1], {Type: FrameB, Display: 2, Data: []byte{0xff}}}}},
	} {
		var derr error
		got := allocatedBy(func() { _, derr = (&Decoder{}).Decode(c.s) })
		if !errors.Is(derr, ErrBitstream) {
			t.Errorf("%s: Decode = %v, want ErrBitstream", c.name, derr)
		}
		if got > 1<<20 {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", c.name, c.s.Bytes(), got)
		}
	}
	// The bound is the true minimum: an all-skip P frame sits exactly on it.
	if n := len(good.Frames[1].Data) * 8; n != 16 || minFrameBits(FrameP, 16, 16) != 9 {
		t.Errorf("all-skip 16×16 P frame is %d bits, minimum %d", n, minFrameBits(FrameP, 16, 16))
	}
}

// TestReadUERejectsOverflow: a 32-zero prefix admits exactly one value
// (2³²−1); any other suffix used to wrap uint32 silently.
func TestReadUERejectsOverflow(t *testing.T) {
	w := NewBitWriter()
	w.WriteUE(math.MaxUint32)
	if v, err := NewBitReader(w.Bytes()).ReadUE(); err != nil || v != math.MaxUint32 {
		t.Fatalf("ReadUE(max) = %d, %v", v, err)
	}
	for _, rest := range []uint64{1, 2, 1 << 31, math.MaxUint32} {
		w := NewBitWriter()
		w.WriteBits(0, 32)
		w.WriteBit(1)
		w.WriteBits(rest, 32)
		r := NewBitReader(w.Bytes())
		if v, err := r.ReadUE(); !errors.Is(err, ErrBitstream) {
			t.Errorf("suffix %#x: ReadUE = %d, %v; want ErrBitstream", rest, v, err)
		}
	}
}

// handBuiltEdgeStreams returns 32×32 streams (a real I frame, then one
// hand-written P or B frame) whose macroblocks carry motion-vector deltas
// of ±(2³¹−1), alone and accumulated, toward every edge and corner.
func handBuiltEdgeStreams(t testing.TB) [][]byte {
	frames := testClipYUV(t, 32, 32, 1, 79)
	base, err := Encode(frames[:2], nil, 30, EncoderConfig{QP: 30})
	if err != nil {
		t.Fatal(err)
	}
	const far = math.MaxInt32
	var out [][]byte
	for _, d := range [][2]int32{{far, 0}, {-far, 0}, {0, far}, {0, -far}, {far, far}, {-far, -far}, {far, -far}, {-far, far}} {
		for _, hp := range []uint{0, 1} {
			for _, typ := range []FrameType{FrameP, FrameB} {
				w := NewBitWriter()
				w.WriteBits(30, 6)
				w.WriteBit(hp)
				w.WriteBit(1) // deblock
				for mb := 0; mb < 4; mb++ {
					w.WriteUE(mbCoded)
					for k := 0; k < 2*int(typ); k++ { // one vector for P, two for B
						w.WriteSE(d[k%2])
					}
					for b := 0; b < 24; b++ {
						var lv [16]int32
						if (b+mb)%5 == 0 {
							lv[0], lv[5] = 3, -1
						}
						writeLevels(w, &lv)
					}
				}
				s := &Stream{W: 32, H: 32, FPS: 30, Frames: []EncodedFrame{base.Frames[0], base.Frames[1]}}
				s.Frames = append(s.Frames, EncodedFrame{Type: typ, Display: 2, Data: w.Bytes()})
				if typ == FrameB {
					// A B frame sits between its anchors in display order.
					s.Frames[1].Display, s.Frames[2].Display = 2, 1
				}
				out = append(out, s.Marshal())
			}
		}
	}
	return out
}

// TestHandBuiltEdgeStreamsDecode makes sure the seeds below reach the
// motion-compensation code rather than failing early.
func TestHandBuiltEdgeStreamsDecode(t *testing.T) {
	for i, data := range handBuiltEdgeStreams(t) {
		s, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Propagation{PropagateReplace, PropagateDelta} {
			dec := Decoder{Enhancer: goldenHook, Mode: mode}
			if out, err := dec.Decode(s); err != nil || len(out) != 3 {
				t.Fatalf("stream %d mode %d: %d frames, %v", i, mode, len(out), err)
			}
		}
	}
}

// FuzzDecode: whatever the bytes, Unmarshal → Decode with an enhancer
// installed, in both propagation modes, returns an error or exactly
// frameSpan frames of the declared size — never a panic — and allocates
// no more than fuzzAllocPerByte × the input length plus a fixed slack.
// When the input left pictures on the decoder's free list, failed decode
// or not, the same Decoder then decodes a short fixed stream, which must
// come out as a fresh decoder's.
// (A P frame costs at most one bit per macroblock and then up to four
// frames' worth of planes — plain, enhanced, and the int16 deltas of a
// half-pel reference: 4·384 bytes per macroblock-bit, 12 288 per byte.)
func FuzzDecode(f *testing.F) {
	const (
		fuzzAllocPerByte = 16384
		fuzzAllocSlack   = 1 << 20
	)
	frames := testClipYUV(f, 48, 32, 2, 77)
	for _, cfg := range []EncoderConfig{
		{QP: 35, BFrames: 1},
		{QP: 24, BFrames: 2, HalfPel: true, Deblock: true},
		{QP: 42, HalfPel: true},
	} {
		st, err := Encode(frames[:8], nil, 30, cfg)
		if err != nil {
			f.Fatal(err)
		}
		orig := st.Marshal()
		f.Add(orig)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 8; trial++ {
			data := append([]byte(nil), orig...)
			for k := 0; k < 1+rng.Intn(8); k++ {
				data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			}
			f.Add(data)
		}
	}
	for _, data := range handBuiltEdgeStreams(f) {
		f.Add(data)
	}
	after, err := Encode(frames[:4], nil, 30, EncoderConfig{QP: 24, BFrames: 2, HalfPel: true, Deblock: true})
	if err != nil {
		f.Fatal(err)
	}
	want := map[Propagation]string{}
	for _, mode := range []Propagation{PropagateReplace, PropagateDelta} {
		dec := Decoder{Enhancer: goldenHook, Mode: mode}
		out, err := dec.Decode(after)
		if err != nil {
			f.Fatal(err)
		}
		want[mode] = digestFrames(out)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			t.Skip() // keeps the allocation bound itself small
		}
		for _, mode := range []Propagation{PropagateReplace, PropagateDelta} {
			var s *Stream
			var out []*video.YUV
			var err error
			dec := Decoder{Enhancer: goldenHook, Mode: mode}
			got := allocatedBy(func() {
				if s, err = Unmarshal(data); err != nil {
					return
				}
				out, err = dec.Decode(s)
			})
			if limit := uint64(fuzzAllocPerByte*len(data) + fuzzAllocSlack); got > limit {
				t.Fatalf("mode %d: %d input bytes allocated %d, limit %d", mode, len(data), got, limit)
			}
			if len(dec.free) > maxFree {
				t.Fatalf("mode %d: free list holds %d pictures", mode, len(dec.free))
			}
			if len(dec.free) > 0 {
				if next, nerr := dec.Decode(after); nerr != nil || digestFrames(next) != want[mode] {
					t.Fatalf("mode %d: a stream decoded after this input differs from a fresh decode (%v)", mode, nerr)
				}
			}
			if err != nil {
				continue
			}
			if len(out) != frameSpan(s) {
				t.Fatalf("mode %d: %d frames, want %d", mode, len(out), frameSpan(s))
			}
			for i, fr := range out {
				if fr == nil || fr.W != s.W || fr.H != s.H || len(fr.Y) != s.W*s.H {
					t.Fatalf("mode %d: frame %d is not %dx%d", mode, i, s.W, s.H)
				}
			}
		}
	})
}
