package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"dcsr/internal/cluster"
	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// Prepare runs the full server-side dcSR pipeline of paper Fig 2 over a
// raw video (display-order frames at the given fps). It is PrepareCtx
// without cancellation.
func Prepare(frames []*video.YUV, fps int, cfg ServerConfig) (*Prepared, error) {
	return PrepareCtx(context.Background(), frames, fps, cfg)
}

// PrepareCtx is Prepare with cancellation and checkpointing. The pipeline
// runs as a sequence of named stages (split → encode → decode_low →
// vae_features → min_model_search → kmeans_silhouette →
// train_micro_models → quantize_backbone → delta_encode → quantize_int8 →
// manifest); ctx is
// checked at every stage boundary, between per-cluster training jobs, and
// before every optimizer step inside a job, so cancellation stops the
// pipeline within one training step per worker and returns ctx.Err().
//
// When cfg.CheckpointDir is set, each completed stage persists its result
// there (artifact.go; trained models individually as they finish); a later
// call with the same inputs resumes from the last completed work, a damaged
// checkpoint costing only the work it held, and once the manifest stage
// has run the directory is the published artifact Load opens. The staged
// pipeline's output is bit-identical to the historical monolithic one.
func PrepareCtx(ctx context.Context, frames []*video.YUV, fps int, cfg ServerConfig) (*Prepared, error) {
	return prepareWith(ctx, frames, fps, cfg, prepareStages())
}

// prepareWith is PrepareCtx over an explicit stage list (tests cut it short).
func prepareWith(ctx context.Context, frames []*video.YUV, fps int, cfg ServerConfig, stages []prepStage) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if len(frames) < 2 {
		return nil, fmt.Errorf("core: need at least 2 frames, got %d", len(frames))
	}
	o := cfg.Obs
	o.Counter("prepare_runs_total").Inc()
	root := o.Start("prepare")
	root.Set("frames", len(frames))
	defer root.End()

	s := &prepState{
		cfg:    cfg,
		frames: frames,
		fps:    fps,
		p:      &Prepared{FPS: fps, BigModel: cfg.BigModel},
		log:    o.Logger(),
	}
	if cfg.CheckpointDir != "" {
		fresh := rootFile{InputDigest: prepareInputDigest(frames, fps, cfg), FPS: fps, BigModel: cfg.BigModel}
		ck, err := resumeArtifact(cfg.CheckpointDir, fresh, s.log)
		if err != nil {
			return nil, err
		}
		s.ck = ck
	}
	if err := runStages(ctx, root, s, stages); err != nil {
		return nil, err
	}
	return s.p, nil
}

// prepareStages is the pipeline definition: paper Fig 2 as data.
func prepareStages() []prepStage {
	return []prepStage{
		{name: "split", run: stageSplit},
		{name: "encode", run: stageEncode},
		{name: "decode_low", run: stageDecodeLow},
		{name: "vae_features", run: stageVAEFeatures},
		{
			name: "min_model_search",
			skip: func(s *prepState) bool { return s.cfg.MicroConfig.Filters != 0 },
			run:  stageMinModelSearch,
		},
		{name: "kmeans_silhouette", run: stageCluster},
		{name: "train_micro_models", run: stageTrain},
		{
			name: "quantize_backbone",
			skip: func(s *prepState) bool { return !s.cfg.Quant.Enabled || !s.cfg.Delta.Enabled },
			run:  stageQuantizeBackbone,
		},
		{
			name: "delta_encode",
			skip: func(s *prepState) bool { return !s.cfg.Delta.Enabled },
			run:  stageDeltaEncode,
		},
		{
			name: "quantize_int8",
			skip: func(s *prepState) bool { return !s.cfg.Quant.Enabled },
			run:  stageQuantize,
		},
		{name: "manifest", run: stageManifest},
	}
}

// stageSplit: variable-length shot-based split; every segment starts with
// an I frame (paper §3.1.1). Deterministic and cheap, so resumes
// recompute it; the root records the result for Load.
func stageSplit(_ context.Context, sp *obs.Span, s *prepState) error {
	segs := splitter.Split(s.frames, s.cfg.Split)
	sp.Set("segments", len(segs))
	s.cfg.Obs.Counter("prepare_segments_total").Add(int64(len(segs)))
	s.log.Debug("prepare: split", "segments", len(segs))
	s.p.Segments = segs
	return s.ck.update(func(r *rootFile) { r.Segments = segs })
}

// stageEncode produces the low-quality stream the client downloads.
func stageEncode(_ context.Context, sp *obs.Span, s *prepState) error {
	if digest := s.ck.state().Stream; digest != "" {
		st, err := s.ck.stream(digest)
		if err == nil {
			sp.Set("checkpoint", true)
			sp.Set("stream_bytes", st.Bytes())
			s.p.Stream = st
			return nil
		}
		s.log.Warn("prepare: checkpointed stream unusable, re-encoding", "err", err)
	}
	forceI := splitter.ForceIFlags(len(s.frames), s.p.Segments)
	st, err := codec.Encode(s.frames, forceI, s.fps, codec.EncoderConfig{QP: s.cfg.QP})
	if err != nil {
		return fmt.Errorf("core: encoding low-quality stream: %w", err)
	}
	sp.Set("stream_bytes", st.Bytes())
	s.p.Stream = st
	return s.ck.update(func(r *rootFile) { r.Stream = s.ck.put(st.Marshal()) })
}

// stageDecodeLow decodes our own stream's opening I frame of every
// segment to obtain the client-visible low-quality I frames (training
// inputs must match what the client will enhance) and pairs them with the
// pristine originals. An I frame decodes on its own, so nothing else of
// the stream is decoded, and each decodes into the picture of the last.
func stageDecodeLow(_ context.Context, _ *obs.Span, s *prepState) error {
	dec := codec.Decoder{Obs: s.cfg.Obs}
	for si, seg := range s.p.Segments {
		sub, err := s.p.SegmentStream(si)
		if err != nil {
			return fmt.Errorf("core: decoding own stream: %w", err)
		}
		sub.Frames = sub.Frames[:1]
		low, err := dec.Decode(sub)
		if err != nil {
			return fmt.Errorf("core: decoding own stream: %w", err)
		}
		s.p.LowIFrames = append(s.p.LowIFrames, low[0].ToRGB())
		s.p.OrigIFrames = append(s.p.OrigIFrames, s.frames[seg.Start].ToRGB())
		dec.Recycle(low)
	}
	return nil
}

// stageVAEFeatures extracts the per-segment VAE latents (paper §3.1.1,
// Fig 3).
func stageVAEFeatures(_ context.Context, sp *obs.Span, s *prepState) error {
	if feats := s.ck.state().Features; feats != nil {
		sp.Set("checkpoint", true)
		s.p.Features = feats
		return nil
	}
	cfg := s.cfg
	vm, err := vae.New(cfg.VAE, cfg.Seed+1)
	if err != nil {
		return err
	}
	if _, err := vm.Train(s.p.OrigIFrames, cfg.VAETrain); err != nil {
		return fmt.Errorf("core: VAE training: %w", err)
	}
	for _, f := range s.p.OrigIFrames {
		s.p.Features = append(s.p.Features, vm.Features(f))
	}
	s.log.Debug("prepare: VAE features extracted", "iframes", len(s.p.OrigIFrames))
	return s.ck.update(func(r *rootFile) { r.Features = s.p.Features })
}

// stageMinModelSearch finds the minimum working micro configuration
// (paper Appendix A.1); skipped when cfg.MicroConfig pins one explicitly.
func stageMinModelSearch(ctx context.Context, sp *obs.Span, s *prepState) error {
	if micro := s.ck.state().Micro; micro != nil {
		sp.Set("checkpoint", true)
		s.p.MicroConfig = *micro
		return nil
	}
	micro, err := FindMinimumWorkingModelCtx(ctx, s.p.LowIFrames, s.p.OrigIFrames, s.cfg)
	if err != nil {
		return err
	}
	s.p.MicroConfig = micro
	return s.ck.update(func(r *rootFile) { r.Micro = &micro })
}

// stageCluster selects K under the |M_big| / |M_min| constraint (paper
// Eq. 2–3) and assigns segments to clusters.
func stageCluster(_ context.Context, sp *obs.Span, s *prepState) error {
	p := s.p
	if s.cfg.MicroConfig.Filters != 0 {
		p.MicroConfig = s.cfg.MicroConfig
	}
	if res := s.ck.state().Cluster; res != nil {
		sp.Set("checkpoint", true)
		p.K, p.Assign, p.Sweeps = res.K, res.Assign, res.Sweeps
		sp.Set("k", p.K)
		return nil
	}
	bigBytes := int(s.cfg.BigModel.SizeBytes())
	minBytes := int(p.MicroConfig.SizeBytes())
	if len(p.Segments) < 3 {
		// Too few segments to cluster meaningfully: single cluster.
		p.K = 1
		p.Assign = make([]int, len(p.Segments))
	} else {
		res, sweeps, err := cluster.SelectK(p.Features, bigBytes, minBytes)
		if err != nil {
			return fmt.Errorf("core: K selection: %w", err)
		}
		p.K = res.K
		p.Assign = res.Assign
		p.Sweeps = sweeps
	}
	sp.Set("k", p.K)
	s.cfg.Obs.Counter("prepare_clusters_total").Add(int64(p.K))
	s.log.Debug("prepare: clusters selected", "k", p.K)
	return s.ck.update(func(r *rootFile) {
		r.Micro, r.Cluster = &p.MicroConfig, &clusterRecord{K: p.K, Assign: p.Assign, Sweeps: p.Sweeps}
	})
}

// stageTrain trains one micro model per cluster on its I-frame pairs
// (paper §3.1.3). Models are independent, so they train concurrently via
// forEach; per-label seeds keep the result identical to sequential
// training, and each finished model checkpoints immediately. A resume
// restores each model as far as the later stages had taken it, delta and
// int8 verdicts included: they then compute only what is missing.
func stageTrain(ctx context.Context, trainSpan *obs.Span, s *prepState) error {
	o := s.cfg.Obs
	sampleCtr := o.Counter("train_samples_total")
	stepCtr := o.Counter("train_steps_total")
	flopCtr := o.Counter("train_flops_total")
	p := s.p
	micro := p.MicroConfig
	prev := s.ck.state().Models
	trained := make([]*SegmentModel, p.K)
	err := forEach(ctx, p.K, runtime.GOMAXPROCS(0), func(label int) error {
		var pairs []edsr.Pair // (decoded low-quality, pristine) I frames
		for _, si := range p.clusterSegments(label, 0) {
			pairs = append(pairs, edsr.Pair{Low: p.LowIFrames[si], High: p.OrigIFrames[si]})
		}
		if len(pairs) == 0 {
			return nil
		}
		cs := trainSpan.Child("train_cluster")
		defer cs.End()
		cs.Set("label", label)
		if rec := prev[label]; rec != nil && rec.Train != nil {
			sm, err := s.ck.restoreModel(label, micro, rec)
			if err != nil {
				s.log.Warn("prepare: checkpointed model damaged, recomputing what was lost", "label", label, "err", err)
			}
			if sm != nil {
				cs.Set("checkpoint", true)
				trained[label] = sm
				return nil
			}
		}
		cs.Set("samples", len(pairs))
		sampleCtr.Add(int64(len(pairs)))
		m, err := edsr.New(micro, s.cfg.Seed+100+int64(label))
		if err != nil {
			return err
		}
		opts := s.cfg.Train
		opts.Seed = s.cfg.Seed + 200 + int64(label)
		opts.Stop = func() bool { return ctx.Err() != nil }
		tr, err := m.Train(pairs, opts)
		if err != nil {
			if errors.Is(err, edsr.ErrStopped) {
				return ctx.Err()
			}
			return fmt.Errorf("core: training micro model %d: %w", label, err)
		}
		cs.Set("steps", tr.Steps)
		stepCtr.Add(int64(tr.Steps))
		flopCtr.Add(int64(tr.TrainFLOPs))
		sm := &SegmentModel{
			Label: label, Config: micro, Model: m,
			Bytes: nn.EncodeWeights(m.Params()), Train: tr,
		}
		trained[label] = sm
		// Checkpointed at once, so a cancelled run never retrains it; the
		// fresh record drops later stages' verdicts on what it replaces.
		return s.ck.update(func(r *rootFile) {
			r.Models[label] = &modelRecord{Weights: s.ck.put(sm.Bytes), Train: tr}
		})
	})
	if err != nil {
		return err
	}
	p.Models = make(map[int]*SegmentModel)
	for label, sm := range trained {
		if sm != nil {
			p.TrainFLOPs += sm.Train.TrainFLOPs
			p.Models[label] = sm
		}
	}
	return nil
}

// clusterSegments returns the indices of label's segments in order: the
// first limit of them, or all when limit is 0.
func (p *Prepared) clusterSegments(label, limit int) []int {
	var segs []int
	for si, a := range p.Assign {
		if a == label && (limit == 0 || len(segs) < limit) {
			segs = append(segs, si)
		}
	}
	return segs
}

// judge is the publisher gates' one quality measure: it plays segments
// segs as a viewer does — stream.PlaySegment at the viewer's default
// propagation, m enhancing every I frame in the loop, on the int8 kernels
// when int8 is set — and returns the luma PSNR of every played frame, the
// squared errors pooled against the pristine frames. opening, when set,
// holds Enhance of each segment's opening I frame, already computed (the
// calibration outputs): EnhanceYUV(f) is Enhance(f.ToRGB()).ToYUV() bit
// for bit, so the float32 play takes it instead of running m on that
// frame again, and any later I frame goes through m. The plays decode in
// g's decoder, each into the frames of the one before.
func (s *prepState) judge(g *gate, segs []int, m *edsr.Model, int8 bool, opening []*video.RGB) (float64, error) {
	p, dec := s.p, &g.dec
	dec.Mode = stream.DefaultOptions().Propagation
	var mse float64
	var n int
	for i, si := range segs {
		sub, err := p.SegmentStream(si)
		if err != nil {
			return 0, err
		}
		var played []*video.YUV
		if opening != nil {
			first := opening[i].ToYUV()
			dec.Enhancer = codec.PrecisionEnhancerFunc(func(display int, f *video.YUV) (*video.YUV, codec.Precision) {
				if display == 0 {
					return first, codec.PrecisionFloat32
				}
				return m.EnhanceYUV(f), codec.PrecisionFloat32
			})
			played, err = dec.Decode(sub)
		} else {
			played, err = stream.PlaySegment(dec, sub, m, int8)
		}
		if err != nil {
			return 0, fmt.Errorf("core: playing segment %d: %w", si, err)
		}
		start := p.Segments[si].Start
		for j, f := range played {
			mse += quality.LumaMSE(f, s.frames[start+j])
		}
		n += len(played)
		dec.Recycle(played)
	}
	return mseToPSNR(mse / float64(n)), nil
}

// stageManifest assembles the manifest with byte-accurate segment and
// model sizes, and marks the checkpoint complete: a published artifact.
func stageManifest(_ context.Context, _ *obs.Span, s *prepState) error {
	p := s.p
	p.Manifest = buildManifest(p)
	s.log.Info("prepare: pipeline complete",
		"segments", len(p.Segments), "k", p.K, "models", len(p.Models),
		"stream_bytes", p.Stream.Bytes(), "train_flops", p.TrainFLOPs)
	return s.ck.update(func(r *rootFile) { r.Complete = true })
}
