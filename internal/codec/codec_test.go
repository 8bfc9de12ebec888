package codec

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dcsr/internal/video"
)

func TestExpGolombRoundTrip(t *testing.T) {
	w := NewBitWriter()
	ues := []uint32{0, 1, 2, 3, 7, 8, 100, 65535}
	ses := []int32{0, 1, -1, 2, -2, 17, -100, 32000, -32000}
	for _, v := range ues {
		w.WriteUE(v)
	}
	for _, v := range ses {
		w.WriteSE(v)
	}
	r := NewBitReader(w.Bytes())
	for _, want := range ues {
		got, err := r.ReadUE()
		if err != nil {
			t.Fatalf("ReadUE: %v", err)
		}
		if got != want {
			t.Fatalf("ReadUE = %d, want %d", got, want)
		}
	}
	for _, want := range ses {
		got, err := r.ReadSE()
		if err != nil {
			t.Fatalf("ReadSE: %v", err)
		}
		if got != want {
			t.Fatalf("ReadSE = %d, want %d", got, want)
		}
	}
}

func TestBitReaderTruncated(t *testing.T) {
	r := NewBitReader(nil)
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("ReadBit on empty stream should fail")
	}
	if _, err := r.ReadUE(); err == nil {
		t.Fatal("ReadUE on empty stream should fail")
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var in, freq, out [16]float64
		for i := range in {
			in[i] = rng.Float64()*255 - 128
		}
		fdct4(&in, &freq)
		idct4(&freq, &out)
		for i := range in {
			if math.Abs(in[i]-out[i]) > 1e-9 {
				t.Fatalf("trial %d: idct(dct(x))[%d] = %g, want %g", trial, i, out[i], in[i])
			}
		}
	}
}

func TestQStepMonotonic(t *testing.T) {
	prev := 0.0
	for qp := 0; qp <= 51; qp++ {
		s := QStep(qp)
		if s <= prev {
			t.Fatalf("QStep(%d) = %g not > QStep(%d) = %g", qp, s, qp-1, prev)
		}
		prev = s
	}
	// Step doubles every 6 QP.
	if r := QStep(18) / QStep(12); math.Abs(r-2) > 1e-9 {
		t.Fatalf("QStep(18)/QStep(12) = %g, want 2", r)
	}
}

func TestLevelsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var levels [16]int32
		nz := rng.Intn(17)
		perm := rng.Perm(16)
		for i := 0; i < nz; i++ {
			v := int32(rng.Intn(100) - 50)
			if v == 0 {
				v = 1
			}
			levels[perm[i]] = v
		}
		w := NewBitWriter()
		writeLevels(w, &levels)
		var got [16]int32
		if err := readLevels(NewBitReader(w.Bytes()), &got); err != nil {
			t.Fatalf("trial %d: readLevels: %v", trial, err)
		}
		if got != levels {
			t.Fatalf("trial %d: levels mismatch\n got %v\nwant %v", trial, got, levels)
		}
	}
}

// testClipYUV renders a deterministic clip at codec-friendly dimensions.
func testClipYUV(t testing.TB, w, h, cues int, seed int64) []*video.YUV {
	t.Helper()
	clip := video.Generate(video.GenConfig{
		W: w, H: h, Seed: seed, NumScenes: 3, TotalCues: cues,
		MinFrames: 6, MaxFrames: 10,
	})
	return clip.YUVFrames()
}

func psnrY(a, b *video.YUV) float64 {
	var mse float64
	for i := range a.Y {
		d := float64(a.Y[i]) - float64(b.Y[i])
		mse += d * d
	}
	mse /= float64(len(a.Y))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 3, 7)
	for _, bf := range []int{0, 2} {
		st, err := Encode(frames, nil, 30, EncoderConfig{QP: 20, GOPSize: 12, BFrames: bf})
		if err != nil {
			t.Fatalf("BFrames=%d: Encode: %v", bf, err)
		}
		var d Decoder
		out, err := d.Decode(st)
		if err != nil {
			t.Fatalf("BFrames=%d: Decode: %v", bf, err)
		}
		if len(out) != len(frames) {
			t.Fatalf("BFrames=%d: decoded %d frames, want %d", bf, len(out), len(frames))
		}
		for i := range frames {
			if p := psnrY(frames[i], out[i]); p < 30 {
				t.Errorf("BFrames=%d: frame %d PSNR %.1f dB < 30 at QP 20", bf, i, p)
			}
		}
		if d.Stats.Frames() != len(frames) {
			t.Errorf("BFrames=%d: stats count %d != %d", bf, d.Stats.Frames(), len(frames))
		}
	}
}

func TestQPQualityAndRateOrdering(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 2, 11)
	var prevBytes int
	var prevPSNR float64 = math.Inf(1)
	for i, qp := range []int{10, 28, 45} {
		st, err := Encode(frames, nil, 30, EncoderConfig{QP: qp})
		if err != nil {
			t.Fatalf("QP %d: %v", qp, err)
		}
		var d Decoder
		out, err := d.Decode(st)
		if err != nil {
			t.Fatalf("QP %d: %v", qp, err)
		}
		var avg float64
		for j := range frames {
			avg += psnrY(frames[j], out[j])
		}
		avg /= float64(len(frames))
		if i > 0 {
			if st.Bytes() >= prevBytes {
				t.Errorf("QP %d used %d bytes, not fewer than %d at lower QP", qp, st.Bytes(), prevBytes)
			}
			if avg >= prevPSNR {
				t.Errorf("QP %d PSNR %.1f, not lower than %.1f at lower QP", qp, avg, prevPSNR)
			}
		}
		prevBytes, prevPSNR = st.Bytes(), avg
	}
}

func TestForceIFramePlacement(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 3, 13)
	forceI := make([]bool, len(frames))
	cut := len(frames) / 2
	forceI[cut] = true
	st, err := Encode(frames, forceI, 30, EncoderConfig{QP: 30, GOPSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range st.Frames {
		if f.Display == cut && f.Type == FrameI {
			found = true
		}
	}
	if !found {
		t.Fatalf("no I frame at forced cut %d", cut)
	}
	if got := st.CountType(FrameI); got != 2 {
		t.Errorf("expected exactly 2 I frames (start + cut), got %d", got)
	}
}

// TestBFrameCutFromAnchorFails cuts a BFrames: 1 stream into two
// segments at a forced I frame, the way a segment server would: the last
// B frame before the cut predicts from the I frame after it, so the first
// segment lost that B frame's backward anchor and must fail to decode,
// not decode from the two anchors it has left. The uncut stream and the
// second segment, which holds all its anchors, decode.
func TestBFrameCutFromAnchorFails(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 3, 13)[:12]
	const cut = 6 // anchors 0, 2, 4, 6: B frame 5 predicts from P4 and I6
	forceI := make([]bool, len(frames))
	forceI[cut] = true
	st, err := Encode(frames, forceI, 30, EncoderConfig{QP: 35, GOPSize: 1000, BFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := new(Decoder).Decode(st); err != nil {
		t.Fatalf("uncut stream: %v", err)
	}
	segment := func(lo, hi int) *Stream {
		sub := &Stream{W: st.W, H: st.H, FPS: st.FPS}
		for _, f := range st.Frames {
			if f.Display >= lo && f.Display < hi {
				sub.Frames = append(sub.Frames, EncodedFrame{Type: f.Type, Display: f.Display - lo, Data: f.Data})
			}
		}
		return sub
	}
	first := segment(0, cut)
	if first.CountType(FrameB) == 0 || first.Frames[len(first.Frames)-1].Type != FrameB {
		t.Fatal("the first segment does not end on the B frame that straddles the cut")
	}
	if got, err := new(Decoder).Decode(first); err == nil {
		t.Errorf("the segment cut before B frame %d's backward anchor decoded %d frames", cut-1, len(got))
	} else if !errors.Is(err, ErrBitstream) {
		t.Errorf("the segment cut before its backward anchor failed with %v, want ErrBitstream", err)
	}
	if _, err := new(Decoder).Decode(segment(cut, len(frames))); err != nil {
		t.Errorf("the segment after the cut: %v", err)
	}
}

func TestGOPSizeForcesPeriodicI(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 3, 17)
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 30, GOPSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	lastI := -1
	// Check in display order over anchors only.
	for _, f := range st.Frames {
		if f.Type == FrameI {
			if lastI >= 0 && f.Display-lastI > 8 {
				t.Errorf("I frames at %d and %d exceed GOP size 8", lastI, f.Display)
			}
			if f.Display > lastI {
				lastI = f.Display
			}
		}
	}
	if lastI < 0 {
		t.Fatal("no I frames")
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	frames := testClipYUV(t, 32, 32, 2, 19)
	st, err := Encode(frames, nil, 24, EncoderConfig{QP: 25, BFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := st.Marshal()
	if len(data) != st.Bytes() {
		t.Errorf("Marshal length %d != Bytes() %d", len(data), st.Bytes())
	}
	st2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if st2.W != st.W || st2.H != st.H || st2.FPS != st.FPS || len(st2.Frames) != len(st.Frames) {
		t.Fatalf("header mismatch after round trip: %+v vs %+v", st2, st)
	}
	var d1, d2 Decoder
	out1, err := d1.Decode(st)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := d2.Decode(st2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		for j := range out1[i].Y {
			if out1[i].Y[j] != out2[i].Y[j] {
				t.Fatalf("frame %d differs after marshal round trip", i)
			}
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	frames := testClipYUV(t, 32, 32, 1, 23)
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 30})
	if err != nil {
		t.Fatal(err)
	}
	data := st.Marshal()
	cases := map[string][]byte{
		"empty":     {},
		"short":     data[:10],
		"bad magic": append([]byte("XXXX"), data[4:]...),
		"truncated": data[:len(data)-5],
	}
	for name, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("%s: Unmarshal accepted corrupt data", name)
		}
	}
}

func TestEnhancerHookAppliedToIFramesOnly(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 3, 29)
	forceI := make([]bool, len(frames))
	forceI[len(frames)/2] = true
	st, err := Encode(frames, forceI, 30, EncoderConfig{QP: 28, GOPSize: 1000, BFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	d := Decoder{Enhancer: PrecisionEnhancerFunc(func(display int, f *video.YUV) (*video.YUV, Precision) {
		calls = append(calls, display)
		// Brighten the I frame so propagation is observable.
		g := f.Clone()
		for i := range g.Y {
			if g.Y[i] < 215 {
				g.Y[i] += 40
			}
		}
		return g, PrecisionFloat32
	})}
	out, err := d.Decode(st)
	if err != nil {
		t.Fatal(err)
	}
	wantI := st.CountType(FrameI)
	if len(calls) != wantI || d.Stats.Enhanced != wantI {
		t.Fatalf("enhancer called %d times (stats %d), want %d", len(calls), d.Stats.Enhanced, wantI)
	}
	// The enhancement must propagate: decoded P/B frames should be brighter
	// than the plain decode of the same stream.
	var plain Decoder
	base, err := plain.Decode(st)
	if err != nil {
		t.Fatal(err)
	}
	brighter := 0
	for i := range out {
		var se, sb int64
		for j := range out[i].Y {
			se += int64(out[i].Y[j])
			sb += int64(base[i].Y[j])
		}
		if se > sb {
			brighter++
		}
	}
	if brighter < len(out)*9/10 {
		t.Errorf("enhancement propagated to only %d/%d frames", brighter, len(out))
	}
}

func TestEnhancerDimensionChangeRejected(t *testing.T) {
	frames := testClipYUV(t, 32, 32, 1, 31)
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 30})
	if err != nil {
		t.Fatal(err)
	}
	d := Decoder{Enhancer: PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, Precision) {
		return video.NewYUV(f.W*2, f.H*2), PrecisionFloat32
	})}
	if _, err := d.Decode(st); err == nil {
		t.Fatal("decoder accepted an enhancer that changed dimensions")
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(nil, nil, 30, EncoderConfig{}); err == nil {
		t.Error("Encode accepted empty input")
	}
	odd := []*video.YUV{video.NewYUV(30, 30)}
	if _, err := Encode(odd, nil, 30, EncoderConfig{}); err == nil {
		t.Error("Encode accepted non-multiple-of-16 dimensions")
	}
	bad := []*video.YUV{video.NewYUV(32, 32)}
	if _, err := Encode(bad, []bool{true, false}, 30, EncoderConfig{}); err == nil {
		t.Error("Encode accepted mismatched forceI length")
	}
}

func TestSkipModeStaticScene(t *testing.T) {
	// A perfectly static clip should compress P frames to nearly nothing
	// via skip macroblocks.
	f0 := video.Generate(video.GenConfig{W: 64, H: 48, Seed: 3, NumScenes: 1, TotalCues: 1, MinFrames: 2, MaxFrames: 2}).YUVFrames()[0]
	frames := []*video.YUV{f0, f0.Clone(), f0.Clone(), f0.Clone()}
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 24})
	if err != nil {
		t.Fatal(err)
	}
	iSize := 0
	pSize := 0
	for _, f := range st.Frames {
		if f.Type == FrameI {
			iSize += len(f.Data)
		} else {
			pSize += len(f.Data)
		}
	}
	// All three P frames together should cost well under one I frame: most
	// macroblocks are skip, with only quantization-error refresh coded.
	if pSize >= iSize {
		t.Errorf("static P frames use %d bytes vs I %d; skip mode ineffective", pSize, iSize)
	}
}
