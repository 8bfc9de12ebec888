package codec

import (
	"testing"

	"dcsr/internal/video"
)

func TestHalfPelRoundTrip(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 3, 91)
	for _, bf := range []int{0, 2} {
		st, err := Encode(frames, nil, 30, EncoderConfig{QP: 24, BFrames: bf, HalfPel: true})
		if err != nil {
			t.Fatalf("BFrames=%d: %v", bf, err)
		}
		var d Decoder
		out, err := d.Decode(st)
		if err != nil {
			t.Fatalf("BFrames=%d: Decode: %v", bf, err)
		}
		for i := range frames {
			if p := psnrY(frames[i], out[i]); p < 28 {
				t.Errorf("BFrames=%d frame %d: PSNR %.1f too low", bf, i, p)
			}
		}
	}
}

// smoothPanClip renders a textured frame panned by 1.5 px/frame — content
// where half-pel compensation genuinely matters.
func smoothPanClip(t *testing.T, n int) []*video.YUV {
	t.Helper()
	base := video.Generate(video.GenConfig{W: 128, H: 48, Seed: 3, NumScenes: 1, TotalCues: 1, MinFrames: 1, MaxFrames: 1}).Frames()[0]
	var frames []*video.YUV
	for i := 0; i < n; i++ {
		f := video.NewRGB(64, 48)
		// Sample base shifted by 1.5·i pixels with bilinear interpolation
		// via the resize helper on a cropped window.
		off := float64(i) * 1.5
		x0 := int(off)
		frac := off - float64(x0)
		for y := 0; y < 48; y++ {
			for x := 0; x < 64; x++ {
				r0, g0, b0 := base.At(min(x+x0, 127), y)
				r1, g1, b1 := base.At(min(x+x0+1, 127), y)
				f.Set(x, y,
					uint8(float64(r0)*(1-frac)+float64(r1)*frac),
					uint8(float64(g0)*(1-frac)+float64(g1)*frac),
					uint8(float64(b0)*(1-frac)+float64(b1)*frac))
			}
		}
		frames = append(frames, f.ToYUV())
	}
	return frames
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestHalfPelImprovesRateDistortionOnSubPixelMotion(t *testing.T) {
	frames := smoothPanClip(t, 12)
	full, err := Encode(frames, nil, 30, EncoderConfig{QP: 30})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Encode(frames, nil, 30, EncoderConfig{QP: 30, HalfPel: true})
	if err != nil {
		t.Fatal(err)
	}
	var df, dh Decoder
	outF, err := df.Decode(full)
	if err != nil {
		t.Fatal(err)
	}
	outH, err := dh.Decode(half)
	if err != nil {
		t.Fatal(err)
	}
	var pf, ph float64
	for i := range frames {
		pf += psnrY(frames[i], outF[i])
		ph += psnrY(frames[i], outH[i])
	}
	pf /= float64(len(frames))
	ph /= float64(len(frames))
	t.Logf("sub-pixel pan: full-pel %.2f dB / %d B, half-pel %.2f dB / %d B",
		pf, full.Bytes(), ph, half.Bytes())
	// Rate-distortion must improve: fewer bytes at no quality loss, or
	// better quality at no byte increase (bilinear interpolation smooths,
	// so either axis may absorb the gain).
	if half.Bytes() >= full.Bytes() && ph <= pf {
		t.Errorf("half-pel gave no RD benefit: %d B / %.2f dB vs %d B / %.2f dB",
			half.Bytes(), ph, full.Bytes(), pf)
	}
}

func TestHalfPelEnhancementPropagates(t *testing.T) {
	frames := smoothPanClip(t, 10)
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 40, HalfPel: true})
	if err != nil {
		t.Fatal(err)
	}
	brighten := PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, Precision) {
		g := f.Clone()
		for i := range g.Y {
			if g.Y[i] < 215 {
				g.Y[i] += 40
			}
		}
		return g, PrecisionFloat32
	})
	for _, mode := range []Propagation{PropagateReplace, PropagateDelta} {
		d := Decoder{Enhancer: brighten, Mode: mode}
		out, err := d.Decode(st)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		plain := Decoder{}
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
			t.Errorf("mode %d: enhancement reached only %d/%d frames", mode, brighter, len(out))
		}
	}
}

func TestFloorDiv2(t *testing.T) {
	cases := map[int]int{4: 2, 5: 2, 0: 0, -1: -1, -2: -1, -3: -2, -4: -2, 3: 1}
	for in, want := range cases {
		if got := floorDiv2(in); got != want {
			t.Errorf("floorDiv2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFetchBlockHPIntegerEqualsFullPel(t *testing.T) {
	frames := testClipYUV(t, 32, 32, 1, 5)
	src := frames[0].Y
	a := make([]int32, 16)
	b := make([]int32, 16)
	for _, m := range []mv{{0, 0}, {2, -4}, {-6, 8}} {
		fetchBlockHP(src, 32, 32, 8, 8, mv{m.x * 2, m.y * 2}, 4, 4, a)
		fetchBlock(src, 32, 32, 8, 8, m, 4, 4, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("mv %v: HP integer position differs from full-pel at %d", m, i)
			}
		}
	}
}
