package experiments

import (
	"fmt"

	"dcsr/internal/cluster"
	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
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
	psnrOf := func(opts stream.Options) float64 {
		played, _, _, err := playLocal(prep, opts)
		if err != nil {
			panic(err)
		}
		var sum float64
		for i := range frames {
			sum += quality.PSNRYUV(frames[i], played[i])
		}
		return sum / float64(len(frames))
	}
	lowOpts := stream.DefaultOptions()
	lowOpts.Enhance = false
	low := psnrOf(lowOpts)
	out := map[string]float64{"LOW": low}
	for _, m := range []struct {
		name string
		mode codec.Propagation
	}{
		{"replace (paper Fig 6)", codec.PropagateReplace},
		{"gated delta (default)", codec.PropagateDelta},
	} {
		opts := stream.DefaultOptions()
		opts.Propagation = m.mode
		p := psnrOf(opts)
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

// AblationQuantization measures what shipping micro models in int8 costs
// and saves, on the models that ship. Prepare with Quant off publishes the
// float32 master (dcW1 payloads, float32 playback); Prepare with Quant on
// gates each cluster (its int8 output within 0.5 dB of its float32 output
// on its own I frames) and publishes every admitted model as its int8 grid
// (dcW6), played on the int8 kernels. The table has one row per precision
// — total payload bytes and mean playback PSNR against the pristine source
// — then one per cluster with its payload and gate verdict. psnrs and
// sizes are keyed "fp32" and "int8"; shipped is the Quant-on stream.
func AblationQuantization(cfg EvalConfig) (t Table, psnrs map[string]float64, sizes map[string]int, shipped *core.Prepared, err error) {
	clip := cfg.clip(video.GenreNews)
	frames := clip.YUVFrames()
	t = Table{
		Title:  "Ablation: int8 model shipping (dcW6 for gate-admitted clusters)",
		Header: []string{"models", "payload B", "playback PSNR (dB)", "int8 I frames", "gate (f32 / int8 played luma dB)"},
	}
	psnrs, sizes = map[string]float64{}, map[string]int{}
	for _, arm := range []struct {
		name  string
		quant bool
	}{{"fp32", false}, {"int8", true}} {
		sc := cfg.serverConfig()
		sc.Quant = core.QuantConfig{Enabled: arm.quant}
		prep, err := core.Prepare(frames, clip.FPS, sc)
		if err != nil {
			return Table{}, nil, nil, nil, err
		}
		played, _, dec, err := playLocal(prep, stream.DefaultOptions())
		if err != nil {
			return Table{}, nil, nil, nil, err
		}
		var psnr float64
		for i := range frames {
			psnr += quality.PSNRYUV(frames[i], played[i])
		}
		psnrs[arm.name] = psnr / float64(len(frames))
		sizes[arm.name] = prep.Manifest.TotalModelBytes()
		admitted := 0
		for _, sm := range prep.Models {
			if sm.Quant != nil && sm.Quant.Int8OK {
				admitted++
			}
		}
		t.Add(fmt.Sprintf("%s (%d models)", arm.name, len(prep.Models)), fmt.Sprintf("%d", sizes[arm.name]),
			f2(psnrs[arm.name]), fmt.Sprintf("%d/%d", dec.EnhancedInt8, dec.Enhanced),
			fmt.Sprintf("%d admitted", admitted))
		if arm.quant {
			shipped = prep
		}
	}
	for _, label := range shipped.Manifest.ModelLabels() {
		sm := shipped.Models[label]
		if sm == nil || sm.Quant == nil {
			continue
		}
		verdict := "int8"
		if !sm.Quant.Int8OK {
			verdict = "float32 fallback"
		}
		t.Add(fmt.Sprintf("  cluster %d", label), fmt.Sprintf("%d", len(sm.Bytes)), "", "",
			fmt.Sprintf("%s / %s -> %s", f2(sm.Quant.PSNRFloat32), f2(sm.Quant.PSNRInt8), verdict))
	}
	return t, psnrs, sizes, shipped, nil
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
