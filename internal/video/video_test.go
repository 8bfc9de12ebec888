package video

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewYUVNeutralChroma(t *testing.T) {
	f := NewYUV(16, 16)
	if f.ChromaW() != 8 || f.ChromaH() != 8 {
		t.Fatalf("chroma dims %dx%d", f.ChromaW(), f.ChromaH())
	}
	for _, v := range f.U {
		if v != 128 {
			t.Fatal("U plane not neutral")
		}
	}
}

func TestNewYUVOddDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewYUV(15,16) did not panic")
		}
	}()
	NewYUV(15, 16)
}

func TestRGBSetAt(t *testing.T) {
	f := NewRGB(4, 4)
	f.Set(2, 3, 10, 20, 30)
	r, g, b := f.At(2, 3)
	if r != 10 || g != 20 || b != 30 {
		t.Fatalf("At = (%d,%d,%d)", r, g, b)
	}
}

func TestColorConversionRoundTrip(t *testing.T) {
	// RGB→YUV→RGB must be close to identity for smooth content (chroma is
	// subsampled, so pixel-exact equality is not expected on edges).
	rng := rand.New(rand.NewSource(1))
	f := NewRGB(32, 32)
	// Smooth gradient with mild noise.
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			f.Set(x, y, uint8(40+4*x+rng.Intn(3)), uint8(30+5*y%200), uint8(100+2*x))
		}
	}
	back := f.ToYUV().ToRGB()
	var mse float64
	for i := range f.Pix {
		d := float64(f.Pix[i]) - float64(back.Pix[i])
		mse += d * d
	}
	mse /= float64(len(f.Pix))
	psnr := 10 * math.Log10(255*255/math.Max(mse, 1e-9))
	if psnr < 35 {
		t.Fatalf("RGB→YUV→RGB PSNR %.1f dB < 35", psnr)
	}
}

func TestGrayConversionExactness(t *testing.T) {
	// Pure gray has no chroma; luma round trip should be near-exact.
	f := NewRGB(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			v := uint8(16*y + x)
			f.Set(x, y, v, v, v)
		}
	}
	back := f.ToYUV().ToRGB()
	for i := range f.Pix {
		d := int(f.Pix[i]) - int(back.Pix[i])
		if d < -3 || d > 3 {
			t.Fatalf("gray pixel %d drifted by %d", i, d)
		}
	}
}

func TestYUVConversionBounds(t *testing.T) {
	// Extreme RGB values must convert without over/underflow artifacts.
	f := func(r, g, b uint8) bool {
		img := NewRGB(2, 2)
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				img.Set(x, y, r, g, b)
			}
		}
		yuv := img.ToYUV()
		back := yuv.ToRGB()
		// Round trip of a constant image should stay within a small error.
		r2, g2, b2 := back.At(0, 0)
		return absInt(int(r)-int(r2)) <= 6 && absInt(int(g)-int(g2)) <= 6 && absInt(int(b)-int(b2)) <= 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestMeanAbsDiff(t *testing.T) {
	a := NewYUV(16, 16)
	b := NewYUV(16, 16)
	if d := MeanAbsDiff(a, b); d != 0 {
		t.Fatalf("identical frames diff %v", d)
	}
	for i := range b.Y {
		b.Y[i] = 10
	}
	if d := MeanAbsDiff(a, b); d != 10 {
		t.Fatalf("diff = %v, want 10", d)
	}
}

func TestResizeRGBIdentity(t *testing.T) {
	f := NewRGB(8, 8)
	f.Set(3, 3, 200, 100, 50)
	same := ResizeRGB(f, 8, 8)
	for i := range f.Pix {
		if f.Pix[i] != same.Pix[i] {
			t.Fatal("identity resize changed pixels")
		}
	}
}

func TestResizePreservesConstant(t *testing.T) {
	for _, resize := range []func(*RGB, int, int) *RGB{ResizeRGB, BicubicResizeRGB} {
		f := NewRGB(12, 10)
		for i := range f.Pix {
			f.Pix[i] = 77
		}
		out := resize(f, 30, 20)
		for i, v := range out.Pix {
			if v < 75 || v > 79 {
				t.Fatalf("constant image resample drifted at %d: %d", i, v)
			}
		}
		down := resize(f, 5, 4)
		for i, v := range down.Pix {
			if v < 75 || v > 79 {
				t.Fatalf("constant image downsample drifted at %d: %d", i, v)
			}
		}
	}
}

func TestResizeDownUpRecoversSmooth(t *testing.T) {
	// A smooth gradient should survive 2× down/up within a few dB of
	// perfection.
	f := NewRGB(64, 48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			f.Set(x, y, uint8(2*x+40), uint8(3*y+20), uint8(x+y))
		}
	}
	back := ResizeRGB(ResizeRGB(f, 32, 24), 64, 48)
	var mse float64
	for i := range f.Pix {
		d := float64(f.Pix[i]) - float64(back.Pix[i])
		mse += d * d
	}
	mse /= float64(len(f.Pix))
	if psnr := 10 * math.Log10(255*255/math.Max(mse, 1e-9)); psnr < 35 {
		t.Fatalf("down/up PSNR %.1f dB < 35 on smooth gradient", psnr)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{W: 32, H: 32, Seed: 9, NumScenes: 3, TotalCues: 5, MinFrames: 4, MaxFrames: 6}
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Frames() {
		fa, fb := a.Frames()[i], b.Frames()[i]
		for j := range fa.Pix {
			if fa.Pix[j] != fb.Pix[j] {
				t.Fatalf("frame %d differs at byte %d", i, j)
			}
		}
	}
}

func TestGenerateSceneStructure(t *testing.T) {
	clip := Generate(GenConfig{W: 32, H: 32, Seed: 11, NumScenes: 3, TotalCues: 8, MinFrames: 4, MaxFrames: 6})
	if clip.Len() == 0 {
		t.Fatal("empty clip")
	}
	labels := clip.Labels()
	if len(labels) != clip.Len() {
		t.Fatalf("labels %d != frames %d", len(labels), clip.Len())
	}
	// Consecutive cues must have different scenes (a cut changes content).
	cueStarts := 0
	prev := -1
	for _, c := range clip.Sched {
		if c.Scene == prev {
			t.Fatal("adjacent cues share a scene; no visual cut")
		}
		prev = c.Scene
		cueStarts++
	}
	if cueStarts != 8 {
		t.Fatalf("expected 8 cues, got %d", cueStarts)
	}
	// Frames within one scene should differ less than frames across scenes.
	yuv := clip.YUVFrames()
	var intra, inter []float64
	for i := 1; i < clip.Len(); i++ {
		d := MeanAbsDiff(yuv[i-1], yuv[i])
		if labels[i-1] == labels[i] {
			intra = append(intra, d)
		} else {
			inter = append(inter, d)
		}
	}
	if len(inter) == 0 || len(intra) == 0 {
		t.Fatal("degenerate schedule")
	}
	if mean(intra) >= mean(inter) {
		t.Fatalf("intra-scene diff %.2f >= inter-scene diff %.2f", mean(intra), mean(inter))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestSceneRecurrenceProducesSimilarFrames(t *testing.T) {
	clip := Generate(GenConfig{
		W: 32, H: 32, Seed: 13, NumScenes: 2,
		Cues:      []Cue{{0, 5}, {1, 5}, {0, 5}},
		MinFrames: 5, MaxFrames: 5,
	})
	frames := clip.YUVFrames()
	// First frame of cue 0 and first frame of cue 2 share scene 0.
	same := MeanAbsDiff(frames[0], frames[10])
	diff := MeanAbsDiff(frames[0], frames[5])
	if same >= diff {
		t.Fatalf("recurring scene diff %.2f >= different scene diff %.2f", same, diff)
	}
}

func TestGenreConfigsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range AllGenres() {
		if seen[g.String()] {
			t.Fatalf("duplicate genre name %q", g)
		}
		seen[g.String()] = true
		cfg := GenreConfig(g, 64, 48, 1)
		if cfg.W != 64 || cfg.H != 48 || cfg.NumScenes == 0 || cfg.Motion == 0 {
			t.Fatalf("genre %s produced bad config %+v", g, cfg)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("expected 6 genres, got %d", len(seen))
	}
}

func TestClipAccessors(t *testing.T) {
	clip := Generate(GenConfig{W: 32, H: 32, FPS: 24, Seed: 17, NumScenes: 2, TotalCues: 3, MinFrames: 4, MaxFrames: 4})
	if clip.Duration() != float64(clip.Len())/24.0 {
		t.Fatalf("Duration %.3f inconsistent", clip.Duration())
	}
	if clip.String() == "" {
		t.Fatal("empty String()")
	}
	yuv := clip.YUVFrames()
	if len(yuv) != clip.Len() {
		t.Fatalf("YUVFrames %d != %d", len(yuv), clip.Len())
	}
}

// The bodies this package shipped before ToRGB/ToYUV were rewritten over
// row slices and backdrops were cached per scene, kept as oracles: the
// rewrites must reproduce them byte for byte.

// toRGBRef is the per-pixel-indexed ToRGB this package shipped before
// the row-slice rewrite, kept as its oracle.
func toRGBRef(f *YUV) *RGB {
	out := NewRGB(f.W, f.H)
	cw := f.ChromaW()
	for y := 0; y < f.H; y++ {
		cy := y / 2
		for x := 0; x < f.W; x++ {
			Y := int32(f.Y[y*f.W+x])
			U := int32(f.U[cy*cw+x/2]) - 128
			V := int32(f.V[cy*cw+x/2]) - 128
			// Fixed-point BT.601: R = Y + 1.402 V; G = Y − 0.344 U − 0.714 V; B = Y + 1.772 U
			r := Y + (1436*V)>>10
			g := Y - (352*U)>>10 - (731*V)>>10
			b := Y + (1815*U)>>10
			i := (y*f.W + x) * 3
			out.Pix[i] = clamp8(r)
			out.Pix[i+1] = clamp8(g)
			out.Pix[i+2] = clamp8(b)
		}
	}
	return out
}

// toYUVRef is the two-pass ToYUV kept as the oracle of the fused one.
func toYUVRef(f *RGB) *YUV {
	w, h := f.W, f.H
	if w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("video: ToYUV requires even dimensions, got %dx%d", w, h))
	}
	out := NewYUV(w, h)
	cw := w / 2
	// Luma.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := (y*w + x) * 3
			r, g, b := int32(f.Pix[i]), int32(f.Pix[i+1]), int32(f.Pix[i+2])
			Y := (306*r + 601*g + 117*b) >> 10
			out.Y[y*w+x] = clamp8(Y)
		}
	}
	// Chroma, subsampled 2×2.
	for cy := 0; cy < h/2; cy++ {
		for cx := 0; cx < w/2; cx++ {
			var ur, ug, ub int32
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					i := ((cy*2+dy)*w + cx*2 + dx) * 3
					ur += int32(f.Pix[i])
					ug += int32(f.Pix[i+1])
					ub += int32(f.Pix[i+2])
				}
			}
			ur, ug, ub = ur/4, ug/4, ub/4
			U := ((-173*ur - 339*ug + 512*ub) >> 10) + 128
			V := ((512*ur - 429*ug - 83*ub) >> 10) + 128
			out.U[cy*cw+cx] = clamp8(U)
			out.V[cy*cw+cx] = clamp8(V)
		}
	}
	return out
}

// framesRef is Clip.render with one renderBackground per cue.
func framesRef(c *Clip) []*RGB {
	type sprite struct {
		x, y, vx, vy, r float64
		cr, cg, cb      uint8
	}
	sprites := make([][]sprite, len(c.Scenes))
	for si, sc := range c.Scenes {
		srng := rand.New(rand.NewSource(sc.Seed))
		ss := make([]sprite, sc.Sprites)
		for i := range ss {
			ang := srng.Float64() * 2 * math.Pi
			speed := sc.Motion * float64(c.W) / 1920.0 * (0.5 + srng.Float64())
			ss[i] = sprite{
				x: srng.Float64() * float64(c.W), y: srng.Float64() * float64(c.H),
				vx: math.Cos(ang) * speed, vy: math.Sin(ang) * speed,
				r:  float64(c.W) * (0.03 + 0.08*srng.Float64()),
				cr: uint8(40 + srng.Intn(215)), cg: uint8(40 + srng.Intn(215)), cb: uint8(40 + srng.Intn(215)),
			}
		}
		sprites[si] = ss
	}
	var frames []*RGB
	for _, cue := range c.Sched {
		bg := renderBackground(c.W, c.H, c.Scenes[cue.Scene])
		for f := 0; f < cue.Frames; f++ {
			frame := bg.Clone()
			ss := sprites[cue.Scene]
			for i := range ss {
				sp := &ss[i]
				drawDisc(frame, sp.x, sp.y, sp.r, sp.cr, sp.cg, sp.cb)
				sp.x += sp.vx
				sp.y += sp.vy
				if sp.x < 0 || sp.x >= float64(c.W) {
					sp.vx = -sp.vx
					sp.x += 2 * sp.vx
				}
				if sp.y < 0 || sp.y >= float64(c.H) {
					sp.vy = -sp.vy
					sp.y += 2 * sp.vy
				}
			}
			frames = append(frames, frame)
		}
	}
	return frames
}

// TestRewritesMatchOracles compares clip rendering and both colour
// conversions with the retained original bodies, over all six genres at
// two sizes.
func TestRewritesMatchOracles(t *testing.T) {
	for _, g := range AllGenres() {
		for _, size := range [][2]int{{96, 64}, {162, 90}} {
			cfg := GenreConfig(g, size[0], size[1], 5)
			cfg.TotalCues, cfg.MinFrames, cfg.MaxFrames = 6, 2, 3
			clip := Generate(cfg)
			want := framesRef(clip)
			if len(want) != clip.Len() {
				t.Fatalf("%v %v: %d frames, oracle renders %d", g, size, clip.Len(), len(want))
			}
			for i, f := range clip.Frames() {
				if !bytes.Equal(f.Pix, want[i].Pix) {
					t.Fatalf("%v %v frame %d: render differs from the per-cue backdrop oracle", g, size, i)
				}
				yuv, wantYUV := f.ToYUV(), toYUVRef(f)
				if !bytes.Equal(yuv.Y, wantYUV.Y) || !bytes.Equal(yuv.U, wantYUV.U) || !bytes.Equal(yuv.V, wantYUV.V) {
					t.Fatalf("%v %v frame %d: ToYUV differs from the oracle", g, size, i)
				}
				if rgb := yuv.ToRGB(); !bytes.Equal(rgb.Pix, toRGBRef(yuv).Pix) {
					t.Fatalf("%v %v frame %d: ToRGB differs from the oracle", g, size, i)
				}
			}
		}
	}
	// Random pixels reach the clamps the generated palettes do not.
	rng := rand.New(rand.NewSource(9))
	f := NewRGB(64, 48)
	rng.Read(f.Pix)
	yuv := NewYUV(64, 48)
	rng.Read(yuv.Y)
	rng.Read(yuv.U)
	rng.Read(yuv.V)
	if got, want := f.ToYUV(), toYUVRef(f); !bytes.Equal(got.Y, want.Y) || !bytes.Equal(got.U, want.U) || !bytes.Equal(got.V, want.V) {
		t.Fatal("ToYUV differs from the oracle on random pixels")
	}
	if !bytes.Equal(yuv.ToRGB().Pix, toRGBRef(yuv).Pix) {
		t.Fatal("ToRGB differs from the oracle on random samples")
	}
}

// BenchmarkGenerate times the end-to-end benchmark's reference clip
// (news, 480×272, six cues of 27 frames) through Generate and
// YUVFrames — the `prepare` workload's whole set-up.
func BenchmarkGenerate(b *testing.B) {
	cfg := GenreConfig(GenreNews, 480, 272, 1)
	cfg.TotalCues, cfg.MinFrames, cfg.MaxFrames = 6, 27, 27
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := len(Generate(cfg).YUVFrames()); n != 6*27 {
			b.Fatalf("%d frames", n)
		}
	}
}

// BenchmarkGenerateRef is BenchmarkGenerate over the oracles, the baseline
// the rewrite is measured against.
func BenchmarkGenerateRef(b *testing.B) {
	cfg := GenreConfig(GenreNews, 480, 272, 1)
	cfg.TotalCues, cfg.MinFrames, cfg.MaxFrames = 6, 27, 27
	clip := Generate(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range framesRef(clip) {
			toYUVRef(f)
		}
	}
}
