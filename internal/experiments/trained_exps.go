package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dcsr/internal/baseline"
	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// EvalConfig scales the trained experiments. The defaults are the
// "evaluation scale" documented in EXPERIMENTS.md: small frames and small
// models so that pure-Go CPU training finishes in seconds while every
// pipeline stage (codec, VAE, clustering, training, decoder-integrated
// enhancement) runs for real.
type EvalConfig struct {
	W, H                       int
	QP                         int
	Micro, Big                 edsr.Config
	MicroSteps                 int
	BigSteps                   int
	Genres                     []video.Genre
	CueFramesMin, CueFramesMax int
	Seed                       int64

	// Obs, when set, instruments every Prepare/Play an experiment runs
	// (dcsr-bench uses this to embed a metrics snapshot in its JSON
	// report). Nil disables instrumentation.
	Obs *obs.Obs
}

// DefaultEvalConfig returns the evaluation-scale settings.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{
		W: 80, H: 48,
		QP:           51, // the paper's CRF-51 "worst quality" regime
		Micro:        edsr.Config{Filters: 8, ResBlocks: 2},
		Big:          edsr.Config{Filters: 16, ResBlocks: 4},
		MicroSteps:   400,
		BigSteps:     600,
		Genres:       video.AllGenres(),
		CueFramesMin: 5,
		CueFramesMax: 9,
		Seed:         7,
	}
}

func (c EvalConfig) serverConfig() core.ServerConfig {
	return core.ServerConfig{
		QP:          c.QP,
		Split:       splitter.Config{Threshold: 14, MinLen: 3},
		VAE:         vae.Config{ImgSize: 16, LatentDim: 8, BaseCh: 4},
		VAETrain:    vae.TrainOptions{Epochs: 25, BatchSize: 4, Seed: c.Seed},
		BigModel:    c.Big,
		MicroConfig: c.Micro,
		Train:       edsr.TrainOptions{Steps: c.MicroSteps, BatchSize: 2, PatchSize: 16},
		Seed:        c.Seed,
		Obs:         c.Obs,
	}
}

func (c EvalConfig) clip(g video.Genre) *video.Clip {
	gc := video.GenreConfig(g, c.W, c.H, c.Seed)
	gc.MinFrames = c.CueFramesMin
	gc.MaxFrames = c.CueFramesMax
	return video.Generate(gc)
}

// MethodQuality is one method's outcome on one video.
type MethodQuality struct {
	PSNR, SSIM   float64
	Bytes        int
	PerFramePSNR []float64
}

// VideoResult is the full comparison for one genre video (paper Figs 9/10).
type VideoResult struct {
	Genre          video.Genre
	Frames         int
	Segments       int
	K              int
	Methods        map[string]MethodQuality
	DcSRTrainFLOPs float64
	BigTrainFLOPs  float64
}

// Fig9Result aggregates the per-video comparisons.
type Fig9Result struct {
	Videos []VideoResult
}

// RunFig9 runs the paper's §4 quality/bandwidth comparison: for each genre
// video, prepare dcSR (micro models per cluster) and the NAS/NEMO big
// model over the same low-quality stream, play all four methods back, and
// measure PSNR, SSIM and downloaded bytes.
func RunFig9(cfg EvalConfig) (*Fig9Result, error) {
	out := &Fig9Result{}
	for _, g := range cfg.Genres {
		clip := cfg.clip(g)
		frames := clip.YUVFrames()
		vr := VideoResult{Genre: g, Frames: len(frames), Methods: map[string]MethodQuality{}}

		// dcSR.
		prep, err := core.Prepare(frames, clip.FPS, cfg.serverConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s dcSR prepare: %v", g, err)
		}
		vr.Segments = len(prep.Segments)
		vr.K = prep.K
		vr.DcSRTrainFLOPs = prep.TrainFLOPs
		opts := stream.DefaultOptions()
		opts.Obs = cfg.Obs
		dcsrFrames, sess, _, err := playLocal(prep, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s dcSR play: %v", g, err)
		}
		vr.Methods["dcSR"] = measure(frames, dcsrFrames, sess.TotalBytes())

		// One big model shared by NAS and NEMO (both train one large model
		// on all frames; they differ only in the inference schedule).
		nas, err := baseline.Prepare(baseline.NAS, frames, prep.Stream, baseline.Config{
			Model:            cfg.Big,
			Train:            edsr.TrainOptions{Steps: cfg.BigSteps, BatchSize: 2, PatchSize: 16},
			TrainFrameStride: 4,
			Seed:             cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s NAS prepare: %v", g, err)
		}
		vr.BigTrainFLOPs = nas.TrainFLOPs
		nasPlay, err := nas.Play()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s NAS play: %v", g, err)
		}
		vr.Methods["NAS"] = measure(frames, nasPlay.Frames, nasPlay.TotalBytes)

		nemo := &baseline.Prepared{
			Method: baseline.NEMO, Model: nas.Model,
			ModelBytes: nas.ModelBytes, Stream: prep.Stream,
		}
		nemoPlay, err := nemo.Play()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s NEMO play: %v", g, err)
		}
		vr.Methods["NEMO"] = measure(frames, nemoPlay.Frames, nemoPlay.TotalBytes)

		low := &baseline.Prepared{Method: baseline.Low, Stream: prep.Stream}
		lowPlay, err := low.Play()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s LOW play: %v", g, err)
		}
		vr.Methods["LOW"] = measure(frames, lowPlay.Frames, lowPlay.TotalBytes)

		out.Videos = append(out.Videos, vr)
	}
	return out, nil
}

// playLocal plays prep through the engine over the prepared stream itself
// with opts: stream.Open, then Session.Play.
func playLocal(prep *core.Prepared, opts stream.Options) ([]*video.YUV, *stream.Session, codec.DecodeStats, error) {
	sess, err := stream.Open(prep.Manifest, prep.MicroConfig, prep, opts)
	if err != nil {
		return nil, nil, codec.DecodeStats{}, err
	}
	frames, dec, err := sess.Play(context.Background())
	return frames, sess, dec, err
}

func measure(orig, played []*video.YUV, bytes int) MethodQuality {
	q := MethodQuality{Bytes: bytes}
	for i := range orig {
		p := quality.PSNRYUV(orig[i], played[i])
		q.PerFramePSNR = append(q.PerFramePSNR, p)
		q.SSIM += quality.SSIMYUV(orig[i], played[i])
	}
	st := quality.Summarize(q.PerFramePSNR)
	q.PSNR = st.Mean
	q.SSIM /= float64(len(orig))
	return q
}

// Methods lists the comparison methods in presentation order.
var Methods = []string{"NAS", "NEMO", "dcSR", "LOW"}

// QualityTables renders paper Fig 9(a) and 9(b).
func (r *Fig9Result) QualityTables() (psnr, ssim Table) {
	psnr = Table{Title: "Fig 9(a): PSNR (dB) per video", Header: []string{"video"}}
	ssim = Table{Title: "Fig 9(b): SSIM per video", Header: []string{"video"}}
	psnr.Header = append(psnr.Header, Methods...)
	ssim.Header = append(ssim.Header, Methods...)
	for _, v := range r.Videos {
		pr := []string{v.Genre.String()}
		sr := []string{v.Genre.String()}
		for _, m := range Methods {
			pr = append(pr, f2(v.Methods[m].PSNR))
			sr = append(sr, f3(v.Methods[m].SSIM))
		}
		psnr.Rows = append(psnr.Rows, pr)
		ssim.Rows = append(ssim.Rows, sr)
	}
	return psnr, ssim
}

// NetworkTable renders paper Fig 10: per-video bytes normalized to NAS.
func (r *Fig9Result) NetworkTable() Table {
	t := Table{
		Title:  "Fig 10: normalized network usage (NAS = 1.0)",
		Header: []string{"video", "NAS", "NEMO", "dcSR", "LOW", "dcSR saving"},
	}
	for _, v := range r.Videos {
		nas := float64(v.Methods["NAS"].Bytes)
		row := []string{v.Genre.String()}
		for _, m := range []string{"NAS", "NEMO", "dcSR", "LOW"} {
			row = append(row, f3(float64(v.Methods[m].Bytes)/nas))
		}
		saving := 1 - float64(v.Methods["dcSR"].Bytes)/nas
		row = append(row, fmt.Sprintf("%.0f%%", saving*100))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// MeanSaving returns dcSR's average bandwidth saving versus NAS (the
// paper's "25% less bandwidth" headline).
func (r *Fig9Result) MeanSaving() float64 {
	var s float64
	for _, v := range r.Videos {
		s += 1 - float64(v.Methods["dcSR"].Bytes)/float64(v.Methods["NAS"].Bytes)
	}
	return s / float64(len(r.Videos))
}

// SpeedupTable renders the §4 training-cost comparison (paper: micro-model
// training is ≈3× cheaper than big-model training).
func (r *Fig9Result) SpeedupTable() Table {
	t := Table{
		Title:  "Training cost: dcSR micro models vs one big model",
		Header: []string{"video", "dcSR GFLOP", "big GFLOP", "speedup"},
	}
	for _, v := range r.Videos {
		t.Add(v.Genre.String(), f2(v.DcSRTrainFLOPs/1e9), f2(v.BigTrainFLOPs/1e9),
			fmt.Sprintf("%.1fx", v.BigTrainFLOPs/v.DcSRTrainFLOPs))
	}
	return t
}

// MeanSpeedup returns the average big/micro training-compute ratio.
func (r *Fig9Result) MeanSpeedup() float64 {
	var s float64
	for _, v := range r.Videos {
		s += v.BigTrainFLOPs / v.DcSRTrainFLOPs
	}
	return s / float64(len(r.Videos))
}

// Fig1c reproduces paper Fig 1(c): one big model trained over a whole
// multi-scene video cannot serve every frame equally — the per-frame PSNR
// of NAS playback spreads by several dB.
func Fig1c(cfg EvalConfig) (Table, quality.Stats, []float64) {
	clip := cfg.clip(video.GenreMusic) // most scenes of the presets
	frames := clip.YUVFrames()
	prep, err := core.Prepare(frames, clip.FPS, cfg.serverConfig())
	if err != nil {
		panic(err)
	}
	nas, err := baseline.Prepare(baseline.NAS, frames, prep.Stream, baseline.Config{
		Model:            cfg.Big,
		Train:            edsr.TrainOptions{Steps: cfg.BigSteps, BatchSize: 2, PatchSize: 16},
		TrainFrameStride: 4,
		Seed:             cfg.Seed,
	})
	if err != nil {
		panic(err)
	}
	play, err := nas.Play()
	if err != nil {
		panic(err)
	}
	q := measure(frames, play.Frames, play.TotalBytes)
	st := quality.Summarize(q.PerFramePSNR)
	sorted := append([]float64(nil), q.PerFramePSNR...)
	sort.Float64s(sorted)
	pct := func(p float64) float64 { return sorted[int(p*float64(len(sorted)-1))] }
	t := Table{
		Title:  "Fig 1(c): per-frame PSNR variance of one big model (CDF summary)",
		Header: []string{"p5", "p25", "median", "p75", "p95", "spread p95-p5 (dB)"},
	}
	t.Add(f2(pct(0.05)), f2(pct(0.25)), f2(pct(0.5)), f2(pct(0.75)), f2(pct(0.95)), f2(pct(0.95)-pct(0.05)))
	return t, st, q.PerFramePSNR
}

// Fig5 reproduces paper Fig 5: the silhouette-coefficient sweep over K for
// one video's VAE segment features; the peak selects K*.
func Fig5(cfg EvalConfig) (Table, int, []float64) {
	gc := video.GenConfig{
		W: cfg.W, H: cfg.H, Seed: cfg.Seed + 77, NumScenes: 5, TotalCues: 20,
		MinFrames: cfg.CueFramesMin, MaxFrames: cfg.CueFramesMax,
	}
	clip := video.Generate(gc)
	frames := clip.YUVFrames()
	sc := cfg.serverConfig()
	prep, err := core.Prepare(frames, clip.FPS, sc)
	if err != nil {
		panic(err)
	}
	t := Table{
		Title:  fmt.Sprintf("Fig 5: silhouette coefficient vs K (video with %d distinct scenes, %d segments)", gc.NumScenes, len(prep.Segments)),
		Header: []string{"K", "silhouette"},
	}
	var curve []float64
	bestK, bestS := 0, math.Inf(-1)
	for _, s := range prep.Sweeps {
		t.Add(fmt.Sprintf("%d", s.K), f3(s.Silhouette))
		curve = append(curve, s.Silhouette)
		if s.Silhouette > bestS {
			bestK, bestS = s.K, s.Silhouette
		}
	}
	return t, bestK, curve
}

// Fig11 reproduces paper Fig 11: with identical initialization and budget,
// the final training loss grows with the number of frames the micro model
// must memorize.
func Fig11(cfg EvalConfig) (Table, []float64) {
	gc := video.GenConfig{
		W: cfg.W, H: cfg.H, Seed: cfg.Seed + 99, NumScenes: 8, TotalCues: 16,
		MinFrames: 2, MaxFrames: 2,
	}
	clip := video.Generate(gc)
	frames := clip.Frames()
	var pairs []edsr.Pair
	for _, f := range frames {
		low := video.ResizeRGB(video.ResizeRGB(f, cfg.W/2, cfg.H/2), cfg.W, cfg.H)
		pairs = append(pairs, edsr.Pair{Low: low, High: f})
	}
	t := Table{
		Title:  "Fig 11: training loss vs training data size (same init, same budget)",
		Header: []string{"images", "final train MSE"},
	}
	sizes := []int{2, 5, 10, 16}
	var losses []float64
	for _, n := range sizes {
		if n > len(pairs) {
			n = len(pairs)
		}
		m, err := edsr.New(cfg.Micro, 4242) // identical init across sizes
		if err != nil {
			panic(err)
		}
		if _, err := m.Train(pairs[:n], edsr.TrainOptions{
			Steps: cfg.MicroSteps, BatchSize: 2, PatchSize: 16, Seed: 1,
		}); err != nil {
			panic(err)
		}
		loss := m.EvalMSE(pairs[:n])
		losses = append(losses, loss)
		t.Add(fmt.Sprintf("%d", n), f2(loss))
	}
	return t, losses
}
