package dcsr_test

import (
	"context"
	"testing"

	"dcsr"
)

// TestPublicAPIEndToEnd exercises the documented public surface exactly the
// way the quickstart example does: generate → prepare → play → measure.
func TestPublicAPIEndToEnd(t *testing.T) {
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 64, H: 48, Seed: 1, NumScenes: 3, TotalCues: 6, MinFrames: 5, MaxFrames: 8,
	})
	frames := clip.YUVFrames()

	prep, err := dcsr.Prepare(frames, clip.FPS, dcsr.ServerConfig{
		QP:          47,
		VAE:         dcsr.VAEConfig{ImgSize: 16, LatentDim: 4, BaseCh: 4},
		MicroConfig: dcsr.EDSRConfig{Filters: 4, ResBlocks: 1},
		Train:       dcsr.TrainOptions{Steps: 50, BatchSize: 2, PatchSize: 16},
	})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if prep.K < 1 {
		t.Fatal("no clusters")
	}

	sess, err := dcsr.Open(prep, dcsr.DefaultSessionOptions())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	played, _, err := sess.Play(context.Background())
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if len(played) != len(frames) {
		t.Fatalf("played %d frames, want %d", len(played), len(frames))
	}
	if sess.TotalBytes() <= 0 {
		t.Fatal("no bytes accounted")
	}
	// Quality metrics are usable on the public types.
	p := dcsr.PSNRYUV(frames[0], played[0])
	s := dcsr.SSIMYUV(frames[0], played[0])
	if p <= 0 || s <= 0 || s > 1 {
		t.Fatalf("metrics out of range: PSNR %.2f SSIM %.4f", p, s)
	}
}

func TestPublicBaselineAPI(t *testing.T) {
	clip := dcsr.GenerateVideo(dcsr.GenreConfig(dcsr.GenreNews, 64, 48, 2))
	frames := clip.YUVFrames()
	st, err := dcsr.EncodeVideo(frames, nil, clip.FPS, dcsr.EncoderConfig{QP: 47})
	if err != nil {
		t.Fatal(err)
	}
	low, err := dcsr.PrepareBaseline(dcsr.MethodLow, frames, st, dcsr.BaselineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := low.Play()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != len(frames) {
		t.Fatal("baseline playback incomplete")
	}
}

func TestPublicDeviceAPI(t *testing.T) {
	fps, err := dcsr.DeviceJetsonNX.SegmentFPS(dcsr.PlaybackSpec{
		Res: dcsr.Res720p, Model: dcsr.ConfigDCSR1, FramesPerSegment: 60, Inferences: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fps < 30 {
		t.Fatalf("dcSR-1 720p on Jetson: %.1f FPS < 30", fps)
	}
}

func TestPublicSplitAPI(t *testing.T) {
	clip := dcsr.GenerateVideo(dcsr.GenConfig{W: 48, H: 48, Seed: 3, NumScenes: 2, TotalCues: 4, MinFrames: 5, MaxFrames: 6})
	segs := dcsr.SplitVideo(clip.YUVFrames(), dcsr.SplitConfig{Threshold: 12, MinLen: 2})
	if len(segs) < 2 {
		t.Fatalf("split found %d segments", len(segs))
	}
}
