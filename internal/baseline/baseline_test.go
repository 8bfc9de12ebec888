package baseline

import (
	"testing"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/quality"
	"dcsr/internal/video"
)

func testStream(t testing.TB) ([]*video.YUV, *codec.Stream) {
	t.Helper()
	clip := video.Generate(video.GenConfig{
		W: 64, H: 48, Seed: 31, NumScenes: 2, TotalCues: 4, MinFrames: 5, MaxFrames: 7,
	})
	frames := clip.YUVFrames()
	st, err := codec.Encode(frames, nil, 30, codec.EncoderConfig{QP: 47})
	if err != nil {
		t.Fatal(err)
	}
	return frames, st
}

func TestMethodString(t *testing.T) {
	if NAS.String() != "NAS" || NEMO.String() != "NEMO" || Low.String() != "LOW" {
		t.Fatal("method names wrong")
	}
}

func TestLowNeedsNoModel(t *testing.T) {
	frames, st := testStream(t)
	p, err := Prepare(Low, frames, st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != nil || p.ModelBytes != 0 {
		t.Fatal("LOW must not train a model")
	}
	res, err := p.Play()
	if err != nil {
		t.Fatal(err)
	}
	if res.Inferences != 0 {
		t.Fatalf("LOW made %d inferences", res.Inferences)
	}
	if res.TotalBytes != st.Bytes() {
		t.Fatalf("LOW bytes %d != stream %d", res.TotalBytes, st.Bytes())
	}
	if len(res.Frames) != len(frames) {
		t.Fatalf("decoded %d frames", len(res.Frames))
	}
}

func TestNEMOEnhancesIFramesOnly(t *testing.T) {
	frames, st := testStream(t)
	p, err := Prepare(NEMO, frames, st, Config{
		Model: edsr.Config{Filters: 4, ResBlocks: 1},
		Train: edsr.TrainOptions{Steps: 40, BatchSize: 2, PatchSize: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Play()
	if err != nil {
		t.Fatal(err)
	}
	if res.Inferences != st.CountType(codec.FrameI) {
		t.Fatalf("NEMO made %d inferences, want %d (I frames)", res.Inferences, st.CountType(codec.FrameI))
	}
	if res.TotalBytes != st.Bytes()+p.ModelBytes {
		t.Fatal("NEMO bytes must include its single model")
	}
}

func TestNASEnhancesEveryFrame(t *testing.T) {
	frames, st := testStream(t)
	p, err := Prepare(NAS, frames, st, Config{
		Model:            edsr.Config{Filters: 4, ResBlocks: 1},
		Train:            edsr.TrainOptions{Steps: 40, BatchSize: 2, PatchSize: 16},
		TrainFrameStride: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Play()
	if err != nil {
		t.Fatal(err)
	}
	if res.Inferences != len(frames) {
		t.Fatalf("NAS made %d inferences, want %d (every frame)", res.Inferences, len(frames))
	}
}

func TestNASImprovesOverLow(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	frames, st := testStream(t)
	nas, err := Prepare(NAS, frames, st, Config{
		Model:            edsr.Config{Filters: 8, ResBlocks: 2},
		Train:            edsr.TrainOptions{Steps: 200, BatchSize: 2, PatchSize: 16},
		TrainFrameStride: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Prepare(Low, frames, st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nasRes, err := nas.Play()
	if err != nil {
		t.Fatal(err)
	}
	lowRes, err := low.Play()
	if err != nil {
		t.Fatal(err)
	}
	var nasPSNR, lowPSNR float64
	for i := range frames {
		nasPSNR += quality.PSNRYUV(frames[i], nasRes.Frames[i])
		lowPSNR += quality.PSNRYUV(frames[i], lowRes.Frames[i])
	}
	nasPSNR /= float64(len(frames))
	lowPSNR /= float64(len(frames))
	t.Logf("NAS %.2f dB vs LOW %.2f dB", nasPSNR, lowPSNR)
	if nasPSNR <= lowPSNR {
		t.Errorf("NAS %.2f dB did not beat LOW %.2f dB", nasPSNR, lowPSNR)
	}
}

func TestPrepareTrainingAccounting(t *testing.T) {
	frames, st := testStream(t)
	p, err := Prepare(NEMO, frames, st, Config{
		Model: edsr.Config{Filters: 4, ResBlocks: 1},
		Train: edsr.TrainOptions{Steps: 20, BatchSize: 2, PatchSize: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.TrainFLOPs <= 0 {
		t.Fatal("training FLOPs not accounted")
	}
	if p.ModelBytes != p.Model.SizeBytes() {
		t.Fatal("ModelBytes inconsistent")
	}
}
