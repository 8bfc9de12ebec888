package codec

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dcsr/internal/video"
)

// The golden table pins the codec's output bits: every Stream.Marshal()
// byte and every decoded plane, across the encoder options and the three
// decode modes. It was generated from the commit *before* the codec fast
// paths landed and must never be regenerated to make a change pass — a
// mismatch means the change altered the bitstream or the reconstruction.
//
// The bits rest on float64 × and + being rounded separately in the 4×4
// DCT (dct.go). The Go spec lets a compiler fuse x*y + z into one FMA
// with a single rounding, which moves the last bit of a coefficient and,
// rarely, a quantized level: the gc toolchain does so on arm64, ppc64le,
// s390x and riscv64, and as of Go 1.24 does not on amd64 at any GOAMD64
// level (v3 only makes math.FMA an intrinsic). The table holds for
// builds that do not fuse — amd64, with or without -tags purego — and
// rather than trust that list the test probes for fusion at run time and
// skips where it finds it.

// Package-level so the compiler cannot fold the probe at build time.
var fmaX, fmaZ = 1 + 0x1p-30, -(1 + 0x1p-29)

// fusesMulAdd reports whether this build computes x*y+z with one
// rounding: x² = 1 + 2⁻²⁹ + 2⁻⁶⁰ rounds to 1 + 2⁻²⁹, so the unfused sum
// is exactly 0 and the fused one 2⁻⁶⁰.
func fusesMulAdd() bool { return fmaX*fmaX+fmaZ != 0 }

// goldenClip is a fixed clip that exercises what the fast paths touch:
// generated scenes (cuts, static background, moving discs) followed by
// a noise texture panning across the frame, so edge macroblocks carry
// vectors that point outside the plane and sub-pixel motion appears.
func goldenClip(t testing.TB) (frames []*video.YUV, forceI []bool) {
	const w, h = 96, 64
	frames = testClipYUV(t, w, h, 3, 2309)
	rng := rand.New(rand.NewSource(2310))
	tex := make([]uint8, (w+64)*(h+64))
	for i := range tex {
		tex[i] = uint8(rng.Intn(256))
	}
	// Smooth the texture a little so half-pel interpolation has something
	// to match and the quantizer sees both zero and nonzero blocks.
	tw := w + 64
	for y := 1; y < h+63; y++ {
		for x := 1; x < tw-1; x++ {
			i := y*tw + x
			tex[i] = uint8((int(tex[i-1]) + 2*int(tex[i]) + int(tex[i+1]) + int(tex[i-tw]) + int(tex[i+tw]) + 3) / 6)
		}
	}
	cut := len(frames)
	for k := 0; k < 10; k++ {
		f := video.NewYUV(w, h)
		ox, oy := 32+3*k-(k*k)/2, 32-2*k
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Y[y*w+x] = tex[(oy+y)*tw+ox+x]
			}
		}
		for y := 0; y < h/2; y++ {
			for x := 0; x < w/2; x++ {
				f.U[y*(w/2)+x] = tex[(oy/2+y)*tw+ox/2+x]
				f.V[y*(w/2)+x] = 255 - tex[(oy/2+y+7)*tw+ox/2+x+5]
			}
		}
		frames = append(frames, f)
	}
	forceI = make([]bool, len(frames))
	forceI[cut] = true
	return frames, forceI
}

// goldenEnhancer is a deterministic, strongly non-trivial stand-in for
// the SR model: a contrast stretch (so enhanced samples saturate at both
// ends) plus a position-dependent dither.
func goldenEnhancer(display int, f *video.YUV) *video.YUV {
	out := video.NewYUV(f.W, f.H)
	stretch := func(dst, src []uint8, salt int) {
		for i, v := range src {
			dst[i] = clamp8((int32(v)-128)*3/2 + 128 + int32((i*7+salt)%13) - 6)
		}
	}
	stretch(out.Y, f.Y, display)
	stretch(out.U, f.U, display+3)
	stretch(out.V, f.V, display+5)
	return out
}

func digestFrames(frames []*video.YUV) string {
	h := sha256.New()
	for _, f := range frames {
		h.Write(f.Y)
		h.Write(f.U)
		h.Write(f.V)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenRows computes the table: one "name digest" row for each stream
// and for each decode of it.
func goldenRows(t *testing.T) []string {
	frames, forceI := goldenClip(t)
	type encCase struct {
		name string
		cfg  EncoderConfig
	}
	var cases []encCase
	for _, qp := range []int{20, 30, 42} {
		for _, bf := range []int{0, 2} {
			for _, hp := range []bool{false, true} {
				for _, db := range []bool{false, true} {
					cases = append(cases, encCase{
						fmt.Sprintf("qp%d/b%d/hp%t/db%t", qp, bf, hp, db),
						EncoderConfig{QP: qp, GOPSize: 12, BFrames: bf, HalfPel: hp, Deblock: db},
					})
				}
			}
		}
	}
	cases = append(cases, encCase{"rate200k/b1/hptrue/dbtrue",
		EncoderConfig{GOPSize: 12, BFrames: 1, HalfPel: true, Deblock: true, TargetBitrate: 200_000}})
	var rows []string
	for _, c := range cases {
		st, err := Encode(frames, forceI, 30, c.cfg)
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.name, err)
		}
		wire := st.Marshal()
		rows = append(rows, fmt.Sprintf("%s/stream %x", c.name, sha256.Sum256(wire)))
		for _, mode := range []struct {
			name string
			dec  Decoder
		}{
			{"plain", Decoder{}},
			{"replace", Decoder{Enhancer: EnhancerFunc(goldenEnhancer), Mode: PropagateReplace}},
			{"delta", Decoder{Enhancer: EnhancerFunc(goldenEnhancer), Mode: PropagateDelta}},
		} {
			s2, err := Unmarshal(wire)
			if err != nil {
				t.Fatalf("%s: Unmarshal: %v", c.name, err)
			}
			dec := mode.dec
			out, err := dec.Decode(s2)
			if err != nil {
				t.Fatalf("%s/%s: Decode: %v", c.name, mode.name, err)
			}
			rows = append(rows, fmt.Sprintf("%s/%s %s", c.name, mode.name, digestFrames(out)))
		}
	}
	return rows
}

func TestCodecGolden(t *testing.T) {
	if fusesMulAdd() {
		t.Skip("this build fuses float64 multiply-add; the golden table holds for unfused builds only")
	}
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(goldenRows(t), "\n") + "\n"
	if got == string(want) {
		return
	}
	wantRows := strings.Split(string(want), "\n")
	for i, row := range strings.Split(got, "\n") {
		if i >= len(wantRows) {
			t.Errorf("row %d: got %q, want no such row", i, row)
		} else if row != wantRows[i] {
			t.Errorf("row %d: got %q, want %q", i, row, wantRows[i])
		}
	}
	t.Logf("computed table:\n%s", got)
}
