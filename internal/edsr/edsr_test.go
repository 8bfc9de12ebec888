package edsr

import (
	"bytes"
	"math"
	"testing"

	"dcsr/internal/nn"
	"dcsr/internal/video"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Filters: 0, ResBlocks: 4},
		{Filters: 8, ResBlocks: 0},
		{Filters: 8, ResBlocks: 2, Scale: 3},
	}
	for _, c := range bad {
		if _, err := New(c, 1); err == nil {
			t.Errorf("New accepted invalid config %+v", c)
		}
	}
	if _, err := New(Config{Filters: 8, ResBlocks: 2}, 1); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestConfigString(t *testing.T) {
	got := Config{Filters: 16, ResBlocks: 4}.String()
	if got != "EDSR(16f×4RB,x1)" {
		t.Fatalf("String = %q", got)
	}
}

func TestNumParamsFormula(t *testing.T) {
	// Analytical parameter count for scale 1: head (3·nf·9+nf) +
	// nRB·2·(nf²·9+nf) + body conv (nf²·9+nf) + tail (nf·3·9+3).
	for _, cfg := range []Config{{Filters: 4, ResBlocks: 1}, {Filters: 16, ResBlocks: 4}, {Filters: 8, ResBlocks: 3}} {
		m, err := New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		nf := cfg.Filters
		want := (3*nf*9 + nf) + cfg.ResBlocks*2*(nf*nf*9+nf) + (nf*nf*9 + nf) + (nf*3*9 + 3)
		if got := m.NumParams(); got != want {
			t.Errorf("%v: NumParams = %d, want %d", cfg, got, want)
		}
	}
}

func TestSizeMonotonicity(t *testing.T) {
	// Table 1 property: size grows monotonically in both n_f and n_RB.
	grid := []int{4, 8, 16}
	for _, scale := range []int{1, 4} {
		var prevRowMax int
		for _, nf := range grid {
			var prev int
			for _, rb := range []int{4, 8, 16} {
				m, err := New(Config{Filters: nf, ResBlocks: rb, Scale: scale}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if m.SizeBytes() <= prev {
					t.Fatalf("size not monotone in ResBlocks at nf=%d scale=%d", nf, scale)
				}
				if got := m.Cfg.SizeBytes(); got != int64(m.SizeBytes()) {
					t.Fatalf("%v: Config.SizeBytes = %d, built model serializes to %d", m.Cfg, got, m.SizeBytes())
				}
				prev = m.SizeBytes()
			}
			if prev <= prevRowMax {
				t.Fatalf("size not monotone in Filters at scale=%d", scale)
			}
			prevRowMax = prev
		}
	}
}

func TestCheckpointBytesFactor(t *testing.T) {
	m, _ := New(Config{Filters: 8, ResBlocks: 2}, 1)
	if m.CheckpointBytes() != 3*m.SizeBytes() {
		t.Fatal("checkpoint factor wrong")
	}
}

func TestUntrainedScale1IsIdentity(t *testing.T) {
	m, err := New(Config{Filters: 8, ResBlocks: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	clip := video.Generate(video.GenConfig{W: 32, H: 32, Seed: 3, NumScenes: 1, TotalCues: 1, MinFrames: 1, MaxFrames: 1})
	f := clip.Frames()[0]
	out := m.Enhance(f)
	for i := range f.Pix {
		if d := int(f.Pix[i]) - int(out.Pix[i]); d < -1 || d > 1 {
			t.Fatalf("untrained scale-1 model not identity at %d: %d vs %d", i, f.Pix[i], out.Pix[i])
		}
	}
}

func TestUntrainedUpscaleEqualsNearest(t *testing.T) {
	m, err := New(Config{Filters: 4, ResBlocks: 1, Scale: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	clip := video.Generate(video.GenConfig{W: 16, H: 16, Seed: 4, NumScenes: 1, TotalCues: 1, MinFrames: 1, MaxFrames: 1})
	f := clip.Frames()[0]
	out := m.Enhance(f)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			wr, wg, wb := f.At(x/2, y/2)
			gr, gg, gb := out.At(x, y)
			if absDiff(wr, gr) > 1 || absDiff(wg, gg) > 1 || absDiff(wb, gb) > 1 {
				t.Fatalf("untrained x2 model not nearest-upsample at (%d,%d)", x, y)
			}
		}
	}
}

func absDiff(a, b uint8) int {
	d := int(a) - int(b)
	if d < 0 {
		return -d
	}
	return d
}

func TestUpscaleTrainingBeatsNearestBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	clip := video.Generate(video.GenConfig{W: 64, H: 64, Seed: 6, NumScenes: 1, TotalCues: 1, MinFrames: 1, MaxFrames: 1})
	high := clip.Frames()[0]
	low := video.ResizeRGB(high, 32, 32)
	m, err := New(Config{Filters: 8, ResBlocks: 2, Scale: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	pair := Pair{Low: low, High: high}
	before := m.EvalMSE([]Pair{pair})
	if _, err := m.Train([]Pair{pair}, TrainOptions{Steps: 250, BatchSize: 2, PatchSize: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	after := m.EvalMSE([]Pair{pair})
	t.Logf("x2 overfit MSE %.2f -> %.2f", before, after)
	if after >= before {
		t.Fatalf("x2 training did not improve on the nearest baseline: %.2f -> %.2f", before, after)
	}
}

func TestForwardShapes(t *testing.T) {
	for _, scale := range []int{1, 2, 4} {
		m, err := New(Config{Filters: 4, ResBlocks: 1, Scale: scale}, 1)
		if err != nil {
			t.Fatal(err)
		}
		f := video.NewRGB(16, 8)
		out := m.Enhance(f)
		if out.W != 16*scale || out.H != 8*scale {
			t.Fatalf("scale %d: output %dx%d", scale, out.W, out.H)
		}
	}
}

func TestTrainingOverfitsSingleImage(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	clip := video.Generate(video.GenConfig{W: 48, H: 48, Seed: 5, NumScenes: 1, TotalCues: 1, MinFrames: 1, MaxFrames: 1})
	high := clip.Frames()[0]
	low := video.ResizeRGB(video.ResizeRGB(high, 12, 12), 48, 48) // heavily blurred
	m, err := New(Config{Filters: 8, ResBlocks: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	before := m.EvalMSE([]Pair{{Low: low, High: high}})
	tr, err := m.Train([]Pair{{Low: low, High: high}}, TrainOptions{Steps: 500, BatchSize: 4, PatchSize: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := m.EvalMSE([]Pair{{Low: low, High: high}})
	t.Logf("single-image overfit MSE %.2f -> %.2f", before, after)
	if after >= before {
		t.Fatalf("training did not reduce MSE: %.2f -> %.2f", before, after)
	}
	if after > before*0.7 {
		t.Errorf("weak overfit: %.2f -> %.2f", before, after)
	}
	if tr.TrainFLOPs <= 0 {
		t.Error("TrainFLOPs not accounted")
	}
}

func TestPaperFig11LossGrowsWithDataSize(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	// Paper Appendix A.1 / Fig 11: with identical initialization and budget,
	// final training loss increases with the amount of data to memorize.
	clip := video.Generate(video.GenConfig{W: 48, H: 48, Seed: 11, NumScenes: 8, TotalCues: 8, MinFrames: 2, MaxFrames: 2})
	frames := clip.Frames()
	var pairs []Pair
	for _, f := range frames {
		low := video.ResizeRGB(video.ResizeRGB(f, 24, 24), 48, 48)
		pairs = append(pairs, Pair{Low: low, High: f})
	}
	// Memorization property, controlled for content difficulty: evaluate
	// both models on the SAME two frames. The model that only had to
	// memorize those two must reconstruct them better than a same-capacity,
	// same-initialization model that also had to memorize fourteen others.
	probe := pairs[:2]
	var losses []float64
	for _, n := range []int{2, 16} {
		m, err := New(Config{Filters: 8, ResBlocks: 2}, 42) // same init every time
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(pairs[:n], TrainOptions{Steps: 120, BatchSize: 4, PatchSize: 16, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		losses = append(losses, m.EvalMSE(probe))
	}
	t.Logf("probe loss trained on 2: %.2f, trained on 16: %.2f", losses[0], losses[1])
	if !(losses[0] < losses[1]) {
		t.Errorf("memorization did not improve with smaller training set: %v", losses)
	}
}

func TestTrainValidation(t *testing.T) {
	m, _ := New(Config{Filters: 4, ResBlocks: 1}, 1)
	if _, err := m.Train(nil, TrainOptions{}); err == nil {
		t.Error("accepted empty pairs")
	}
	small := video.NewRGB(8, 8)
	if _, err := m.Train([]Pair{{Low: small, High: small}}, TrainOptions{PatchSize: 16}); err == nil {
		t.Error("accepted frames smaller than patch")
	}
	m2, _ := New(Config{Filters: 4, ResBlocks: 1, Scale: 2}, 1)
	if _, err := m2.Train([]Pair{{Low: small, High: small}}, TrainOptions{PatchSize: 4}); err == nil {
		t.Error("accepted dimension mismatch for scale 2")
	}
}

func TestWeightsRoundTripThroughBytes(t *testing.T) {
	cfg := Config{Filters: 4, ResBlocks: 2}
	src, _ := New(cfg, 33)
	dst, _ := New(cfg, 99)
	data := nn.EncodeWeights(src.Params())
	if len(data) != src.SizeBytes() {
		t.Fatalf("encoded %d bytes, SizeBytes %d", len(data), src.SizeBytes())
	}
	if err := nn.LoadWeights(bytes.NewReader(data), dst.Params()); err != nil {
		t.Fatal(err)
	}
	f := video.NewRGB(16, 16)
	for i := range f.Pix {
		f.Pix[i] = uint8(i * 7 % 255)
	}
	a, b := src.Enhance(f), dst.Enhance(f)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("restored model output differs")
		}
	}
}

func TestConfigFLOPsScalesLinearly(t *testing.T) {
	small := ConfigFLOPs(Config{Filters: 16, ResBlocks: 4}, 100, 100)
	big := ConfigFLOPs(Config{Filters: 16, ResBlocks: 4}, 200, 100)
	if math.Abs(big/small-2) > 1e-9 {
		t.Fatalf("FLOPs not linear in pixels: ratio %v", big/small)
	}
	deeper := ConfigFLOPs(Config{Filters: 16, ResBlocks: 8}, 100, 100)
	if deeper <= small {
		t.Fatal("FLOPs not increasing in depth")
	}
	wider := ConfigFLOPs(Config{Filters: 32, ResBlocks: 4}, 100, 100)
	if wider/small < 3 || wider/small > 4.5 {
		t.Fatalf("doubling width should ~4x body FLOPs, got ratio %.2f", wider/small)
	}
}

func TestInferenceFLOPsMatchesConfig(t *testing.T) {
	cfg := Config{Filters: 8, ResBlocks: 2}
	m, _ := New(cfg, 1)
	if m.InferenceFLOPs(64, 64) != ConfigFLOPs(cfg, 64, 64) {
		t.Fatal("InferenceFLOPs disagrees with ConfigFLOPs")
	}
}

func TestActivationBytesScale(t *testing.T) {
	base := ConfigActivationBytes(Config{Filters: 16, ResBlocks: 4}, 1000, 1000)
	withUp := ConfigActivationBytes(Config{Filters: 16, ResBlocks: 4, Scale: 4}, 1000, 1000)
	if withUp <= base {
		t.Fatal("upsampling must increase activation memory")
	}
	wide := ConfigActivationBytes(Config{Filters: 64, ResBlocks: 4}, 1000, 1000)
	if wide != 4*base {
		t.Fatalf("activation bytes not linear in filters: %d vs %d", wide, base)
	}
}

func TestEnhanceYUVPreservesDimensions(t *testing.T) {
	m, _ := New(Config{Filters: 4, ResBlocks: 1}, 1)
	f := video.NewYUV(32, 16)
	out := m.EnhanceYUV(f)
	if out.W != 32 || out.H != 16 {
		t.Fatalf("EnhanceYUV changed dims to %dx%d", out.W, out.H)
	}
}

func TestPaperConfigs(t *testing.T) {
	// dcSR-1/2/3 from §4: 4, 12, 16 ResBlocks of 16 filters.
	if ConfigDCSR1.ResBlocks != 4 || ConfigDCSR2.ResBlocks != 12 || ConfigDCSR3.ResBlocks != 16 {
		t.Fatal("dcSR config ResBlocks wrong")
	}
	for _, c := range []Config{ConfigDCSR1, ConfigDCSR2, ConfigDCSR3} {
		if c.Filters != 16 {
			t.Fatal("dcSR configs use 16 filters")
		}
	}
	if ConfigBig.Filters != 64 {
		t.Fatal("big model uses 64 filters")
	}
	// Micro models must be dramatically smaller than the big model.
	micro, _ := New(ConfigDCSR1, 1)
	big, _ := New(ConfigBig, 1)
	if ratio := float64(big.SizeBytes()) / float64(micro.SizeBytes()); ratio < 10 {
		t.Fatalf("big/micro size ratio only %.1f", ratio)
	}
}
