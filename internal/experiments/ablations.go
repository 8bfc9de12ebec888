package experiments

import (
	"fmt"

	"dcsr/internal/cluster"
	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// ablationClip renders a clip with known scene structure for the
// clustering ablations.
func ablationClip(cfg EvalConfig, scenes, cues int) *video.Clip {
	return video.Generate(video.GenConfig{
		W: cfg.W, H: cfg.H, Seed: cfg.Seed + 1234, NumScenes: scenes, TotalCues: cues,
		MinFrames: cfg.CueFramesMin, MaxFrames: cfg.CueFramesMax,
	})
}

// segmentIFrames returns the I-frame RGBs and their ground-truth scene
// labels after shot-based splitting.
func segmentIFrames(clip *video.Clip) (frames []*video.RGB, truth []int) {
	yuv := clip.YUVFrames()
	segs := splitter.Split(yuv, splitter.Config{Threshold: 14, MinLen: 3})
	for _, s := range segs {
		frames = append(frames, clip.Frames()[s.Start])
		truth = append(truth, clip.Labels()[s.Start])
	}
	return frames, truth
}

// purity is the fraction of points whose cluster's majority ground-truth
// label matches their own — 1.0 means the clustering recovered the scene
// structure exactly.
func purity(assign, truth []int, k int) float64 {
	counts := make([]map[int]int, k)
	for i := range counts {
		counts[i] = map[int]int{}
	}
	for i, a := range assign {
		counts[a][truth[i]]++
	}
	correct := 0
	for _, m := range counts {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(assign))
}

// rawFeatures downsamples a frame to 8×8 grayscale — the naive alternative
// to learned VAE features.
func rawFeatures(f *video.RGB) []float64 {
	small := video.ResizeRGB(f, 8, 8)
	out := make([]float64, 64)
	for i := 0; i < 64; i++ {
		r := float64(small.Pix[i*3])
		g := float64(small.Pix[i*3+1])
		b := float64(small.Pix[i*3+2])
		out[i] = (0.299*r + 0.587*g + 0.114*b) / 255
	}
	return out
}

// AblationFeatures compares clustering quality using trained VAE latents,
// an untrained VAE, and raw downsampled pixels (paper §3.1.1 argues the
// KL-regularized latent space is what makes neighborhoods meaningful).
func AblationFeatures(cfg EvalConfig) (Table, map[string]float64) {
	clip := ablationClip(cfg, 4, 16)
	frames, truth := segmentIFrames(clip)
	k := 4

	vm, err := vae.New(vae.Config{ImgSize: 16, LatentDim: 8, BaseCh: 4}, cfg.Seed)
	if err != nil {
		panic(err)
	}
	untrained := make([][]float64, len(frames))
	for i, f := range frames {
		untrained[i] = vm.Features(f)
	}
	if _, err := vm.Train(frames, vae.TrainOptions{Epochs: 25, BatchSize: 4, Seed: cfg.Seed}); err != nil {
		panic(err)
	}
	variants := []struct {
		name  string
		feats [][]float64
	}{
		{"VAE (trained)", featsOf(frames, vm.Features)},
		{"VAE (untrained)", untrained},
		{"raw 8x8 pixels", featsOf(frames, rawFeatures)},
	}
	t := Table{
		Title:  fmt.Sprintf("Ablation: clustering features (video with %d scenes, %d segments, K=%d)", 4, len(frames), k),
		Header: []string{"features", "silhouette", "purity vs scenes"},
	}
	purities := map[string]float64{}
	for _, v := range variants {
		res, err := cluster.GlobalKMeans(v.feats, k, 0)
		if err != nil {
			panic(err)
		}
		sil, err := cluster.Silhouette(v.feats, res.Assign, k)
		if err != nil {
			panic(err)
		}
		p := purity(res.Assign, truth, k)
		purities[v.name] = p
		t.Add(v.name, f3(sil), f3(p))
	}
	return t, purities
}

func featsOf(frames []*video.RGB, fn func(*video.RGB) []float64) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = fn(f)
	}
	return out
}

// AblationGlobalKMeans compares global k-means against plain Lloyd on the
// segment features (paper §3.1.2: Lloyd can converge to local optima).
func AblationGlobalKMeans(cfg EvalConfig) (Table, float64, float64) {
	clip := ablationClip(cfg, 5, 20)
	frames, _ := segmentIFrames(clip)
	vm, err := vae.New(vae.Config{ImgSize: 16, LatentDim: 8, BaseCh: 4}, cfg.Seed)
	if err != nil {
		panic(err)
	}
	if _, err := vm.Train(frames, vae.TrainOptions{Epochs: 25, BatchSize: 4, Seed: cfg.Seed}); err != nil {
		panic(err)
	}
	feats := featsOf(frames, vm.Features)
	t := Table{
		Title:  "Ablation: global k-means vs Lloyd (inertia, lower is better)",
		Header: []string{"K", "Lloyd", "global", "global <= Lloyd"},
	}
	var lloydTotal, globalTotal float64
	for k := 2; k <= 6 && k < len(feats); k++ {
		l, err := cluster.KMeans(feats, k, 0)
		if err != nil {
			panic(err)
		}
		g, err := cluster.GlobalKMeans(feats, k, 0)
		if err != nil {
			panic(err)
		}
		lloydTotal += l.Inertia
		globalTotal += g.Inertia
		t.Add(fmt.Sprintf("%d", k), f3(l.Inertia), f3(g.Inertia), fmt.Sprintf("%v", g.Inertia <= l.Inertia+1e-9))
	}
	return t, globalTotal, lloydTotal
}

// AblationPropagation compares the two I-frame enhancement propagation
// mechanisms: the paper-literal DPB replacement (Fig 6) and the gated
// delta transfer this implementation defaults to (see codec.Propagation).
// Reported per mode: mean playback PSNR against the pristine source.
func AblationPropagation(cfg EvalConfig) (Table, map[string]float64) {
	clip := cfg.clip(video.GenreNews)
	frames := clip.YUVFrames()
	prep, err := core.Prepare(frames, clip.FPS, cfg.serverConfig())
	if err != nil {
		panic(err)
	}
	t := Table{
		Title:  "Ablation: enhancement propagation mode",
		Header: []string{"mode", "PSNR (dB)", "vs LOW"},
	}
	psnrOf := func(pl *core.Player) float64 {
		res, err := pl.Play()
		if err != nil {
			panic(err)
		}
		var sum float64
		for i := range frames {
			sum += quality.PSNRYUV(frames[i], res.Frames[i])
		}
		return sum / float64(len(frames))
	}
	lowPl := core.NewPlayer(prep)
	lowPl.Enhance = false
	low := psnrOf(lowPl)
	out := map[string]float64{"LOW": low}
	for _, m := range []struct {
		name string
		mode codec.Propagation
	}{
		{"replace (paper Fig 6)", codec.PropagateReplace},
		{"gated delta (default)", codec.PropagateDelta},
	} {
		pl := core.NewPlayer(prep)
		pl.Propagation = m.mode
		p := psnrOf(pl)
		out[m.name] = p
		t.Add(m.name, f2(p), fmt.Sprintf("%+.2f dB", p-low))
	}
	t.Add("LOW (no enhancement)", f2(low), "+0.00 dB")
	return t, out
}

// AblationHalfPel measures the optional half-sample motion compensation:
// bytes and decoded quality at equal QP against the full-pel default.
func AblationHalfPel(cfg EvalConfig) (Table, map[string]int, map[string]float64) {
	clip := cfg.clip(video.GenreSports) // highest-motion preset
	frames := clip.YUVFrames()
	t := Table{
		Title:  "Ablation: half-pel motion compensation (equal QP, high-motion content)",
		Header: []string{"motion", "stream bytes", "decoded PSNR (dB)"},
	}
	bytesBy := map[string]int{}
	psnrBy := map[string]float64{}
	for _, v := range []struct {
		name string
		hp   bool
	}{{"full-pel", false}, {"half-pel", true}} {
		st, err := codec.Encode(frames, nil, clip.FPS, codec.EncoderConfig{QP: cfg.QP - 10, HalfPel: v.hp})
		if err != nil {
			panic(err)
		}
		var dec codec.Decoder
		out, err := dec.Decode(st)
		if err != nil {
			panic(err)
		}
		var psnr float64
		for i := range frames {
			psnr += quality.PSNRYUV(frames[i], out[i])
		}
		psnr /= float64(len(frames))
		bytesBy[v.name] = st.Bytes()
		psnrBy[v.name] = psnr
		t.Add(v.name, fmt.Sprintf("%d", st.Bytes()), f2(psnr))
	}
	return t, bytesBy, psnrBy
}

// AblationQuantization measures what shipping micro models at reduced
// precision costs: model download bytes versus playback quality for
// float32 weights and for the int8 form the model stream carries
// (dcW5's per-channel int8 residuals, nn.EncodeWeightsDelta).
func AblationQuantization(cfg EvalConfig) (Table, map[string]float64, map[string]int) {
	clip := cfg.clip(video.GenreNews)
	frames := clip.YUVFrames()
	prep, err := core.Prepare(frames, clip.FPS, cfg.serverConfig())
	if err != nil {
		panic(err)
	}
	t := Table{
		Title:  "Ablation: micro-model weight quantization",
		Header: []string{"precision", "models bytes", "playback PSNR (dB)"},
	}
	psnrs := map[string]float64{}
	sizes := map[string]int{}
	play := func(name string, p *core.Prepared, total int) {
		res, err := core.NewPlayer(p).Play()
		if err != nil {
			panic(err)
		}
		var psnr float64
		for i := range frames {
			psnr += quality.PSNRYUV(frames[i], res.Frames[i])
		}
		psnr /= float64(len(frames))
		psnrs[name] = psnr
		sizes[name] = total
		t.Add(name, fmt.Sprintf("%d", total), f2(psnr))
	}

	total := 0
	for _, sm := range prep.Models {
		total += nn.WeightsSize(sm.Model.Params())
	}
	play("fp32", prep, total)

	// Encode every micro model against an all-zero backbone, so the
	// residual the codec quantizes is the weights themselves, and
	// reassemble it the way a client would.
	quantized := make(map[int]*core.SegmentModel, len(prep.Models))
	total = 0
	for label, sm := range prep.Models {
		zero, err := edsr.New(sm.Config, 0)
		if err != nil {
			panic(err)
		}
		for _, p := range zero.Params() {
			p.W.Fill(0)
		}
		delta, err := nn.EncodeWeightsDelta(zero.Params(), sm.Model.Params())
		if err != nil {
			panic(err)
		}
		total += len(delta)
		m, err := edsr.New(sm.Config, 0)
		if err != nil {
			panic(err)
		}
		if err := nn.ApplyWeightsDelta(zero.Params(), delta, m.Params()); err != nil {
			panic(err)
		}
		// The player downloads canonical float32 payloads, so it is
		// handed the dequantized weights: what a client holds after
		// assembling the int8 download.
		quantized[label] = &core.SegmentModel{Label: label, Config: sm.Config, Model: m, Bytes: nn.EncodeWeights(m.Params())}
	}
	qPrep := *prep
	qPrep.Models = quantized
	play("int8", &qPrep, total)
	return t, psnrs, sizes
}

// AblationSplit compares variable-length shot-based splitting against
// fixed-length segmentation at the same QP (paper §3.1.1: shot-based
// splitting needs fewer I frames and less bitrate for equal quality).
func AblationSplit(cfg EvalConfig) (Table, map[string]int) {
	clip := ablationClip(cfg, 4, 12)
	frames := clip.YUVFrames()

	variable := splitter.Split(frames, splitter.Config{Threshold: 14, MinLen: 3})
	meanLen := len(frames) / len(variable)
	fixedShort := splitter.FixedSplit(len(frames), meanLen/2) // content-agnostic, short segments

	t := Table{
		Title:  "Ablation: variable (shot-based) vs fixed-length split at equal QP",
		Header: []string{"split", "segments", "I frames", "stream KB", "LOW PSNR (dB)"},
	}
	bytesBy := map[string]int{}
	for _, v := range []struct {
		name string
		segs []splitter.Segment
	}{
		{"variable (dcSR)", variable},
		{"fixed", fixedShort},
	} {
		forceI := splitter.ForceIFlags(len(frames), v.segs)
		st, err := codec.Encode(frames, forceI, clip.FPS, codec.EncoderConfig{QP: cfg.QP, GOPSize: 1000})
		if err != nil {
			panic(err)
		}
		var dec codec.Decoder
		out, err := dec.Decode(st)
		if err != nil {
			panic(err)
		}
		var psnr float64
		for i := range frames {
			psnr += quality.PSNRYUV(frames[i], out[i])
		}
		psnr /= float64(len(frames))
		bytesBy[v.name] = st.Bytes()
		t.Add(v.name, fmt.Sprintf("%d", len(v.segs)), fmt.Sprintf("%d", st.CountType(codec.FrameI)),
			fmt.Sprintf("%.1f", float64(st.Bytes())/1024), f2(psnr))
	}
	return t, bytesBy
}
