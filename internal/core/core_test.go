package core

import (
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// tinyServerConfig keeps the pipeline fast enough for unit tests while
// exercising every stage.
func tinyServerConfig() ServerConfig {
	return ServerConfig{
		QP:          51,
		Split:       splitter.Config{Threshold: 14, MinLen: 3},
		VAE:         vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4},
		VAETrain:    vae.TrainOptions{Epochs: 12, BatchSize: 4},
		BigModel:    edsr.Config{Filters: 8, ResBlocks: 2},
		MicroConfig: edsr.Config{Filters: 4, ResBlocks: 1},
		Train:       edsr.TrainOptions{Steps: 60, BatchSize: 2, PatchSize: 16},
		Seed:        1,
	}
}

func testClip(t testing.TB, seed int64, scenes, cues int) *video.Clip {
	t.Helper()
	return video.Generate(video.GenConfig{
		W: 64, H: 48, Seed: seed, NumScenes: scenes, TotalCues: cues,
		MinFrames: 5, MaxFrames: 9,
	})
}

func TestPrepareEndToEnd(t *testing.T) {
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	p, err := Prepare(frames, clip.FPS, tinyServerConfig())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if len(p.Segments) < 3 {
		t.Fatalf("expected several segments, got %d", len(p.Segments))
	}
	if len(p.Features) != len(p.Segments) {
		t.Fatalf("features %d != segments %d", len(p.Features), len(p.Segments))
	}
	if p.K < 1 || p.K > len(p.Segments) {
		t.Fatalf("bad K=%d for %d segments", p.K, len(p.Segments))
	}
	if len(p.Models) == 0 {
		t.Fatal("no micro models trained")
	}
	if err := p.Manifest.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	// Segment bytes must sum close to the stream payload.
	total := 0
	for _, s := range p.Manifest.Segments {
		total += s.Bytes
	}
	if total > p.Stream.Bytes() || total < p.Stream.Bytes()/2 {
		t.Errorf("segment bytes %d inconsistent with stream bytes %d", total, p.Stream.Bytes())
	}
	// The number of I frames must equal the number of segments (every
	// segment starts with an I frame and GOPs are long).
	if got := p.Stream.CountType(0); got < len(p.Segments) {
		t.Errorf("stream has %d I frames for %d segments", got, len(p.Segments))
	}
}

func TestPlayerImprovesQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	// Evaluation-scale conditions: 80×48 frames (the size the trained
	// experiments use) with a news-like low-motion clip. Smaller frames
	// leave too little texture for SR to recover reliably.
	clip := video.Generate(video.GenConfig{
		W: 80, H: 48, Seed: 7 + int64(video.GenreNews)*1009, NumScenes: 3, TotalCues: 10,
		Motion: 0.8, MinFrames: 5, MaxFrames: 9,
	})
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.MicroConfig = edsr.Config{Filters: 8, ResBlocks: 2}
	cfg.Train = edsr.TrainOptions{Steps: 400, BatchSize: 2, PatchSize: 16}
	p, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// Enhanced playback.
	enhanced, err := playDefault(p)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	// Plain low-quality playback.
	plain := stream.DefaultOptions()
	plain.Enhance = false
	low, err := playOver(p, p, plain)
	if err != nil {
		t.Fatalf("plain Play: %v", err)
	}
	var psnrEnh, psnrLow float64
	for i := range frames {
		psnrEnh += quality.PSNRYUV(frames[i], enhanced.Frames[i])
		psnrLow += quality.PSNRYUV(frames[i], low.Frames[i])
	}
	psnrEnh /= float64(len(frames))
	psnrLow /= float64(len(frames))
	t.Logf("PSNR low=%.2f dB enhanced=%.2f dB", psnrLow, psnrEnh)
	if psnrEnh <= psnrLow {
		t.Errorf("dcSR playback PSNR %.2f not above low-quality %.2f", psnrEnh, psnrLow)
	}
	if enhanced.Decode.Enhanced == 0 {
		t.Error("no I frames were enhanced")
	}
	// Caching must never download more models than exist.
	if enhanced.Session.Downloads > len(p.Models) {
		t.Errorf("downloaded %d models, only %d exist", enhanced.Session.Downloads, len(p.Models))
	}
}

func TestModelCachingSavesBytes(t *testing.T) {
	clip := testClip(t, 7, 2, 10) // few scenes, many cues → heavy recurrence
	frames := clip.YUVFrames()
	p, err := Prepare(frames, clip.FPS, tinyServerConfig())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	r1, err := playDefault(p)
	if err != nil {
		t.Fatal(err)
	}
	noCache := stream.DefaultOptions()
	noCache.CacheBudget = 0
	r2, err := playOver(p, p, noCache)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) > len(p.Models) {
		if r1.Session.ModelBytes >= r2.Session.ModelBytes {
			t.Errorf("cache did not reduce model bytes: %d vs %d", r1.Session.ModelBytes, r2.Session.ModelBytes)
		}
	}
	if r1.Session.CacheHits == 0 && len(p.Segments) > p.K {
		t.Error("expected cache hits with recurring scenes")
	}
	// The cache accounting that reads through must mirror the session's.
	for _, r := range []*playback{r1, r2} {
		if r.CacheHits != r.Session.CacheHits {
			t.Errorf("CacheHits = %d, session has %d", r.CacheHits, r.Session.CacheHits)
		}
		if r.CacheMisses != r.Session.CacheMisses {
			t.Errorf("CacheMisses = %d, session has %d", r.CacheMisses, r.Session.CacheMisses)
		}
		if r.ModelBytes != r.Session.ModelBytes {
			t.Errorf("ModelBytes = %d, session has %d", r.ModelBytes, r.Session.ModelBytes)
		}
		if r.CacheMisses != r.Session.Downloads {
			t.Errorf("CacheMisses = %d but Downloads = %d", r.CacheMisses, r.Session.Downloads)
		}
	}
	// Without caching every model-bearing segment is a miss; with
	// caching hits+misses still covers exactly those segments.
	modelSegs := 0
	for _, s := range p.Manifest.Segments {
		if s.ModelLabel >= 0 {
			modelSegs++
		}
	}
	if got := r1.CacheHits + r1.CacheMisses; got != modelSegs {
		t.Errorf("hits+misses = %d, want %d model-bearing segments", got, modelSegs)
	}
	if r2.CacheHits != 0 || r2.CacheMisses != modelSegs {
		t.Errorf("uncached run: hits=%d misses=%d, want 0/%d", r2.CacheHits, r2.CacheMisses, modelSegs)
	}
	// A disabled cache holds nothing and changes only download accounting,
	// never what plays.
	if r2.CacheBytes != 0 {
		t.Errorf("uncached run left %d B resident", r2.CacheBytes)
	}
	if r2.Decode.Enhanced != r1.Decode.Enhanced || r2.DegradedSegments != 0 {
		t.Errorf("uncached run enhanced %d frames with %d degraded segments, want the cached run's %d and 0",
			r2.Decode.Enhanced, r2.DegradedSegments, r1.Decode.Enhanced)
	}
}

func TestPrepareRejectsTinyInput(t *testing.T) {
	if _, err := Prepare(nil, 30, ServerConfig{}); err == nil {
		t.Error("Prepare accepted nil frames")
	}
	if _, err := Prepare([]*video.YUV{video.NewYUV(32, 32)}, 30, ServerConfig{}); err == nil {
		t.Error("Prepare accepted single frame")
	}
}

func TestFindMinimumWorkingModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	clip := testClip(t, 9, 2, 4)
	var low, high []*video.RGB
	for _, f := range clip.Frames()[:4] {
		high = append(high, f)
		// Degrade by down/up sampling.
		low = append(low, video.ResizeRGB(video.ResizeRGB(f, 32, 24), 64, 48))
	}
	cfg := tinyServerConfig()
	cfg.MicroGrid = []edsr.Config{
		{Filters: 4, ResBlocks: 1},
		{Filters: 8, ResBlocks: 2},
	}
	cfg.SearchTrain = edsr.TrainOptions{Steps: 40, BatchSize: 2, PatchSize: 16}
	got, err := FindMinimumWorkingModel(low, high, cfg)
	if err != nil {
		t.Fatalf("FindMinimumWorkingModel: %v", err)
	}
	found := false
	for _, c := range cfg.MicroGrid {
		if got == c {
			found = true
		}
	}
	if !found {
		t.Errorf("returned config %v not from the grid", got)
	}
}
