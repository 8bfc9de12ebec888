package codec

import (
	"crypto/sha256"
	"fmt"
	"math"
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
// rarely, a level or a reconstructed sample (TestFusedIDCTFlips); gc
// does so on arm64, ppc64le, s390x and riscv64. Both transforms round
// every product (float64(x*y) + z), which no backend fuses, and
// TestFMARatchet (repo root) keeps it so: the table does not depend on
// whether a backend fuses.

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

// goldenHook is goldenEnhancer as the decoder's hook.
var goldenHook = PrecisionEnhancerFunc(func(display int, f *video.YUV) (*video.YUV, Precision) {
	return goldenEnhancer(display, f), PrecisionFloat32
})

func digestFrames(frames []*video.YUV) string {
	h := sha256.New()
	for _, f := range frames {
		h.Write(f.Y)
		h.Write(f.U)
		h.Write(f.V)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenStream is one encoder case of the table, marshalled.
type goldenStream struct {
	name string
	wire []byte
}

// goldenStreams encodes the golden clip under every encoder case of the
// table.
func goldenStreams(t *testing.T) []goldenStream {
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
	var out []goldenStream
	for _, c := range cases {
		st, err := Encode(frames, forceI, 30, c.cfg)
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.name, err)
		}
		out = append(out, goldenStream{c.name, st.Marshal()})
	}
	return out
}

// goldenRows computes the table: one "name digest" row for each stream
// and for each decode of it.
func goldenRows(t *testing.T) []string {
	var rows []string
	for _, c := range goldenStreams(t) {
		rows = append(rows, fmt.Sprintf("%s/stream %x", c.name, sha256.Sum256(c.wire)))
		for _, mode := range []struct {
			name string
			dec  Decoder
		}{
			{"plain", Decoder{}},
			{"replace", Decoder{Enhancer: goldenHook, Mode: PropagateReplace}},
			{"delta", Decoder{Enhancer: goldenHook, Mode: PropagateDelta}},
		} {
			s2, err := Unmarshal(c.wire)
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

// idct4Fused is idct4 as a backend that fuses evaluates it: each
// multiply-add one math.FMA, rounded once.
func idct4Fused(in *[16]float64, out *[16]float64) {
	var tmp [16]float64
	for x := 0; x < 4; x++ {
		for n := 0; n < 4; n++ {
			var s float64
			for k := 0; k < 4; k++ {
				s = math.FMA(dctBasis[k][n], in[k*4+x], s)
			}
			tmp[n*4+x] = s
		}
	}
	for y := 0; y < 4; y++ {
		for n := 0; n < 4; n++ {
			var s float64
			for k := 0; k < 4; k++ {
				s = math.FMA(dctBasis[k][n], tmp[y*4+k], s)
			}
			out[y*4+n] = s
		}
	}
}

// codedBlocks returns every coded 4×4 block of a marshalled stream with
// its quantizer step, read with the syntax Decode parses: per frame 6 QP
// bits; an I frame's deblock bit, then per 4×4 block of Y, U and V an
// intra mode and its levels; a P or B frame's two flags, then per
// macroblock a mode and, if coded, two (P) or four (B) vector deltas and
// 24 blocks of levels.
func codedBlocks(t *testing.T, wire []byte) (blocks [][16]int32, qsteps []float64) {
	st, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range st.Frames {
		r := NewBitReader(ef.Data)
		read := func(n int) {
			var lv [16]int32
			for i := 0; i < n; i++ {
				if err := readLevels(r, &lv); err != nil {
					t.Fatal(err)
				}
				if isCoded(&lv) {
					blocks = append(blocks, lv)
				}
			}
		}
		must := func(_ any, err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		qp, err := r.ReadBits(6)
		must(qp, err)
		start := len(blocks)
		if ef.Type == FrameI {
			must(r.ReadBit())
			for _, n := range []int{st.W * st.H, st.W * st.H / 4, st.W * st.H / 4} {
				for b := 0; b < n/(blockSize*blockSize); b++ {
					must(r.ReadUE())
					read(1)
				}
			}
		} else {
			vectors := 2
			if ef.Type == FrameB {
				vectors = 4
			}
			must(r.ReadBits(2))
			for mb := 0; mb < (st.W/mbSize)*(st.H/mbSize); mb++ {
				mode, err := r.ReadUE()
				must(mode, err)
				if mode == mbCoded {
					for i := 0; i < vectors; i++ {
						must(r.ReadSE())
					}
					read(24)
				}
			}
		}
		if left := len(ef.Data)*8 - r.pos; left < 0 || left >= 8 {
			t.Fatalf("frame %d: walk ended %d bits before the payload's end", ef.Display, left)
		}
		for range blocks[start:] {
			qsteps = append(qsteps, QStep(int(qp)))
		}
	}
	return blocks, qsteps
}

// TestFusedIDCTFlips shows what rounding the transforms' products buys:
// over every coded block of the golden streams it evaluates the inverse
// transform as written and as a fusing backend would (idct4Fused), and
// counts the blocks where a sample rounds to a different pixel — for any
// prediction that keeps it in range, since clampPix(p + r) = p +
// ⌊r + ½⌋ there. A decoder that fused would drift from the encoder's
// reconstruction at each of them.
func TestFusedIDCTFlips(t *testing.T) {
	var total, differ, flipped int
	for _, c := range goldenStreams(t) {
		blocks, qsteps := codedBlocks(t, c.wire)
		for i := range blocks {
			var coef, plain, fused [16]float64
			for j, l := range blocks[i] {
				coef[j] = float64(l) * qsteps[i]
			}
			idct4(&coef, &plain)
			idct4Fused(&coef, &fused)
			total++
			if plain != fused {
				differ++
			}
			for j := range plain {
				if math.Floor(plain[j]+0.5) != math.Floor(fused[j]+0.5) {
					flipped++
					break
				}
			}
		}
	}
	t.Logf("%d coded blocks: %d transform differently fused, %d of them reconstruct a different pixel", total, differ, flipped)
	if flipped == 0 {
		t.Errorf("no coded block of the golden streams reconstructs differently when fused")
	}
}
