package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dcsr/internal/cluster"
	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/splitter"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// legacyPrepare is a verbatim copy of the pre-refactor monolithic
// Prepare. It exists only as the golden reference: the staged pipeline
// must reproduce its output bit for bit.
func legacyPrepare(frames []*video.YUV, fps int, cfg ServerConfig) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if len(frames) < 2 {
		return nil, fmt.Errorf("core: need at least 2 frames, got %d", len(frames))
	}
	o := cfg.Obs
	o.Counter("prepare_runs_total").Inc()
	root := o.Start("prepare")
	root.Set("frames", len(frames))
	defer root.End()
	log := o.Logger()

	// 1. Variable-length shot-based split; every segment starts with an I
	// frame (paper §3.1.1).
	sp := root.Child("split")
	segs := splitter.Split(frames, cfg.Split)
	sp.Set("segments", len(segs))
	sp.End()
	o.Counter("prepare_segments_total").Add(int64(len(segs)))
	log.Debug("prepare: split", "segments", len(segs))

	sp = root.Child("encode")
	forceI := splitter.ForceIFlags(len(frames), segs)
	st, err := codec.Encode(frames, forceI, fps, codec.EncoderConfig{
		QP: cfg.QP, GOPSize: cfg.GOPSize, BFrames: cfg.BFrames,
		HalfPel: cfg.HalfPel, Deblock: cfg.Deblock,
	})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: encoding low-quality stream: %w", err)
	}
	sp.Set("stream_bytes", st.Bytes())

	// 2. Decode our own stream to obtain the client-visible low-quality
	// I frames (training inputs must match what the client will enhance).
	sp = root.Child("decode_low")
	dec := codec.Decoder{Obs: o}
	lowFrames, err := dec.Decode(st)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: decoding own stream: %w", err)
	}
	p := &Prepared{FPS: fps, Stream: st, Segments: segs, BigModel: cfg.BigModel}
	for _, s := range segs {
		p.LowIFrames = append(p.LowIFrames, lowFrames[s.Start].ToRGB())
		p.OrigIFrames = append(p.OrigIFrames, frames[s.Start].ToRGB())
	}

	// 3. VAE feature extraction from the I frames (paper §3.1.1, Fig 3).
	sp = root.Child("vae_features")
	vm, err := vae.New(cfg.VAE, cfg.Seed+1)
	if err != nil {
		sp.End()
		return nil, err
	}
	if _, err := vm.Train(p.OrigIFrames, cfg.VAETrain); err != nil {
		sp.End()
		return nil, fmt.Errorf("core: VAE training: %w", err)
	}
	for _, f := range p.OrigIFrames {
		p.Features = append(p.Features, vm.Features(f))
	}
	sp.End()
	log.Debug("prepare: VAE features extracted", "iframes", len(p.OrigIFrames))

	// 4. Minimum working model (paper Appendix A.1), then K selection under
	// the |M_big| / |M_min| constraint (paper Eq. 2–3).
	micro := cfg.MicroConfig
	if micro.Filters == 0 {
		sp = root.Child("min_model_search")
		micro, err = FindMinimumWorkingModel(p.LowIFrames, p.OrigIFrames, cfg)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	p.MicroConfig = micro
	bigBytes := int(cfg.BigModel.SizeBytes())
	minBytes := int(micro.SizeBytes())

	sp = root.Child("kmeans_silhouette")
	if len(segs) < 3 {
		// Too few segments to cluster meaningfully: single cluster.
		p.K = 1
		p.Assign = make([]int, len(segs))
	} else {
		res, sweeps, err := cluster.SelectK(p.Features, bigBytes, minBytes)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: K selection: %w", err)
		}
		p.K = res.K
		p.Assign = res.Assign
		p.Sweeps = sweeps
	}
	sp.Set("k", p.K)
	sp.End()
	o.Counter("prepare_clusters_total").Add(int64(p.K))
	log.Debug("prepare: clusters selected", "k", p.K)

	// 5. Train one micro model per cluster on its I-frame pairs
	// (paper §3.1.3). Models are independent, so they train concurrently;
	// per-label seeds keep the result identical to sequential training.
	trainSpan := root.Child("train_micro_models")
	sampleCtr := o.Counter("train_samples_total")
	stepCtr := o.Counter("train_steps_total")
	flopCtr := o.Counter("train_flops_total")
	p.Models = make(map[int]*SegmentModel)
	type trained struct {
		label int
		sm    *SegmentModel
		err   error
	}
	results := make(chan trained, p.K)
	workers := runtime.GOMAXPROCS(0)
	if workers > p.K {
		workers = p.K
	}
	labels := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for label := range labels {
				var pairs []edsr.Pair
				for si, a := range p.Assign {
					if a == label {
						pairs = append(pairs, edsr.Pair{Low: p.LowIFrames[si], High: p.OrigIFrames[si]})
					}
				}
				if len(pairs) == 0 {
					results <- trained{label: label}
					continue
				}
				cs := trainSpan.Child("train_cluster")
				cs.Set("label", label)
				cs.Set("samples", len(pairs))
				sampleCtr.Add(int64(len(pairs)))
				m, err := edsr.New(micro, cfg.Seed+100+int64(label))
				if err != nil {
					cs.End()
					results <- trained{label: label, err: err}
					continue
				}
				opts := cfg.Train
				opts.Seed = cfg.Seed + 200 + int64(label)
				tr, err := m.Train(pairs, opts)
				if err != nil {
					cs.End()
					results <- trained{label: label, err: fmt.Errorf("core: training micro model %d: %w", label, err)}
					continue
				}
				cs.Set("steps", tr.Steps)
				cs.End()
				stepCtr.Add(int64(tr.Steps))
				flopCtr.Add(int64(tr.TrainFLOPs))
				results <- trained{label: label, sm: &SegmentModel{
					Label: label, Config: micro, Model: m,
					Bytes: nn.EncodeWeights(m.Params()), Train: tr,
				}}
			}
		}()
	}
	for label := 0; label < p.K; label++ {
		labels <- label
	}
	close(labels)
	wg.Wait()
	close(results)
	trainSpan.End()
	for r := range results {
		if r.err != nil {
			return nil, r.err
		}
		if r.sm != nil {
			p.TrainFLOPs += r.sm.Train.TrainFLOPs
			p.Models[r.label] = r.sm
		}
	}

	// 6. Manifest with byte-accurate segment and model sizes.
	sp = root.Child("manifest")
	p.Manifest = buildManifest(p)
	sp.End()
	log.Info("prepare: pipeline complete",
		"segments", len(segs), "k", p.K, "models", len(p.Models),
		"stream_bytes", st.Bytes(), "train_flops", p.TrainFLOPs)
	return p, nil
}

// TestPrepareGoldenEquivalence pins the staged pipeline to the legacy
// monolith: same fixed-seed input, bit-identical output across every
// field a client or evaluation can observe.
func TestPrepareGoldenEquivalence(t *testing.T) {
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()

	want, err := legacyPrepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("legacyPrepare: %v", err)
	}
	got, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	comparePrepared(t, got, want)
}

// TestPrepareGoldenEquivalenceWithSearch covers the min_model_search
// stage too (MicroConfig unset → Appendix A.1 grid search runs).
func TestPrepareGoldenEquivalenceWithSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("model search trains the big reference model")
	}
	clip := testClip(t, 5, 2, 4)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.MicroConfig = edsr.Config{}
	cfg.MicroGrid = []edsr.Config{{Filters: 4, ResBlocks: 1}, {Filters: 8, ResBlocks: 2}}
	cfg.SearchTrain = edsr.TrainOptions{Steps: 20, BatchSize: 2, PatchSize: 16}

	want, err := legacyPrepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("legacyPrepare: %v", err)
	}
	got, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	comparePrepared(t, got, want)
}

// comparePrepared asserts got reproduces want bit for bit.
func comparePrepared(t *testing.T, got, want *Prepared) {
	t.Helper()
	if got.FPS != want.FPS {
		t.Errorf("FPS %d != %d", got.FPS, want.FPS)
	}
	if !reflect.DeepEqual(got.Stream.Marshal(), want.Stream.Marshal()) {
		t.Error("coded streams differ")
	}
	if !reflect.DeepEqual(got.Segments, want.Segments) {
		t.Errorf("segments differ: %v vs %v", got.Segments, want.Segments)
	}
	if !reflect.DeepEqual(got.Features, want.Features) {
		t.Error("VAE features differ")
	}
	if !reflect.DeepEqual(got.Assign, want.Assign) {
		t.Errorf("cluster assignment differs: %v vs %v", got.Assign, want.Assign)
	}
	if got.K != want.K {
		t.Errorf("K %d != %d", got.K, want.K)
	}
	if got.MicroConfig != want.MicroConfig {
		t.Errorf("micro config %+v != %+v", got.MicroConfig, want.MicroConfig)
	}
	if got.TrainFLOPs != want.TrainFLOPs {
		t.Errorf("TrainFLOPs %v != %v", got.TrainFLOPs, want.TrainFLOPs)
	}
	if len(got.Models) != len(want.Models) {
		t.Fatalf("model count %d != %d", len(got.Models), len(want.Models))
	}
	for label, wsm := range want.Models {
		gsm, ok := got.Models[label]
		if !ok {
			t.Errorf("model %d missing", label)
			continue
		}
		if !reflect.DeepEqual(gsm.Bytes, wsm.Bytes) {
			t.Errorf("model %d weights differ", label)
		}
		if !reflect.DeepEqual(gsm.Train, wsm.Train) {
			t.Errorf("model %d train result %+v != %+v", label, gsm.Train, wsm.Train)
		}
	}
	if !reflect.DeepEqual(got.Manifest, want.Manifest) {
		t.Errorf("manifests differ: %+v vs %+v", got.Manifest, want.Manifest)
	}
}
