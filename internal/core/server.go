// Package core implements dcSR itself — the paper's primary contribution —
// on top of the substrate packages: the server-side pipeline (shot-based
// video split → VAE feature extraction → global k-means segment clustering
// with constrained K selection → per-cluster micro EDSR training →
// manifest/model packaging, paper Fig 2), its one on-disk form — the
// checkpoint that, finished, is the published artifact (artifact.go) — and
// Prepared.Fetch, the in-memory download backend a local playback runs
// the one engine over: stream.Open(p.Manifest, p.MicroConfig, p, opts),
// then Session.Play (decoder-integrated I-frame enhancement with
// micro-model caching, paper Figs 6–7).
package core

import (
	"context"
	"errors"
	"fmt"

	"dcsr/internal/cluster"
	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// ServerConfig parameterizes the server-side dcSR pipeline.
type ServerConfig struct {
	// QP is the one encoding setting of the low-quality stream the client
	// downloads; it plays the role of the paper's CRF setting (51 =
	// worst). Default 42. The stream has no B frames, so each segment
	// decodes on its own (SegmentStream), and neither half-pel motion nor
	// deblocking: those stay codec options the ablations measure.
	QP int

	// Shot-based splitting (paper §3.1.1).
	Split splitter.Config

	// VAE feature extraction (paper Fig 3).
	VAE      vae.Config
	VAETrain vae.TrainOptions

	// BigModel is the reference one-model-per-video configuration
	// (NAS/NEMO); its size bounds K via paper Eq. 3, and the minimum-
	// working-model search measures candidates against it.
	BigModel edsr.Config

	// MicroGrid lists candidate micro configurations in ascending size for
	// the Appendix A.1 minimum-working-model search. If MicroConfig is set
	// the search is skipped.
	MicroGrid   []edsr.Config
	MicroConfig edsr.Config // explicit micro config; Filters==0 → search
	// SearchTrain configures candidate training during the search (kept
	// lighter than final training). Zero value → derived from Train.
	SearchTrain edsr.TrainOptions

	// Train configures final micro-model training (paper §3.1.3).
	Train edsr.TrainOptions

	// Quant configures the optional int8 calibration stage with its
	// per-cluster quality gate; the zero value disables it.
	Quant QuantConfig

	// Delta configures the optional delta_encode stage (the model stream:
	// one shared backbone plus per-cluster dcW5 deltas); the zero value
	// disables it.
	Delta DeltaConfig

	Seed int64

	// CheckpointDir, when non-empty, persists each completed pipeline
	// stage (every trained model as it finishes) to this directory; a
	// later Prepare/PrepareCtx call with identical inputs resumes from the
	// last completed work, and the directory of a finished run is the
	// published artifact Load opens (layout: artifact.go). Empty (the
	// default) disables checkpointing.
	CheckpointDir string

	// Obs receives pipeline metrics, a per-stage span tree and stage
	// logs; nil (the default) disables all instrumentation at zero
	// cost. See the obs package doc for the stable metric names.
	Obs *obs.Obs
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.QP == 0 {
		c.QP = 42
	}
	if c.BigModel.Filters == 0 {
		c.BigModel = edsr.Config{Filters: 16, ResBlocks: 6}
	}
	c.Quant = c.Quant.withDefaults()
	c.Delta = c.Delta.withDefaults()
	return c
}

// SegmentModel pairs a trained micro model with its serialized weights.
type SegmentModel struct {
	Label  int
	Config edsr.Config
	Model  *edsr.Model
	Bytes  []byte
	Train  *edsr.TrainResult
	// Quant is the int8 calibration outcome; nil when the quantize_int8
	// stage did not run for this model.
	Quant *QuantResult
	// Delta is the delta_encode outcome; nil when the stage did not run
	// for this model (it stays nil on the backbone itself).
	Delta *DeltaResult
}

// Prepared is the output of the server pipeline: everything a client needs
// (stream + manifest + models) plus the intermediate artifacts the
// evaluation inspects.
type Prepared struct {
	FPS      int
	Stream   *codec.Stream
	Segments []splitter.Segment
	Features [][]float64 // per-segment VAE latent (μ)
	Assign   []int       // per-segment cluster label
	K        int
	Sweeps   []cluster.Sweep // silhouette curve (paper Fig 5)
	Models   map[int]*SegmentModel
	Manifest *stream.Manifest

	MicroConfig edsr.Config // chosen minimum working configuration
	BigModel    edsr.Config

	// TrainFLOPs is the total micro-model training compute; the paper
	// reports ~3× less than big-model training.
	TrainFLOPs float64

	// LowIFrames and OrigIFrames are the per-segment training inputs kept
	// for evaluation (decoded low-quality I frame, pristine I frame).
	LowIFrames  []*video.RGB
	OrigIFrames []*video.RGB
}

// SegmentStream extracts segment i as an independently decodable
// sub-stream: display indices are rebased to the segment start. It
// refuses a stream with B frames, because boundary B frames reference the
// next segment's I frame. Prepare never codes one; a loaded or hand-built
// Prepared may hold one.
func (p *Prepared) SegmentStream(i int) (*codec.Stream, error) {
	if i < 0 || i >= len(p.Segments) {
		return nil, fmt.Errorf("core: segment %d out of range", i)
	}
	if n := p.Stream.CountType(codec.FrameB); n > 0 {
		return nil, fmt.Errorf("core: stream has %d B frames; segments are not independently decodable", n)
	}
	seg := p.Segments[i]
	sub := &codec.Stream{W: p.Stream.W, H: p.Stream.H, FPS: p.Stream.FPS}
	for _, f := range p.Stream.Frames {
		if f.Display >= seg.Start && f.Display < seg.End {
			sub.Frames = append(sub.Frames, codec.EncodedFrame{
				Type: f.Type, Display: f.Display - seg.Start, Data: f.Data,
			})
		}
	}
	if len(sub.Frames) == 0 || sub.Frames[0].Type != codec.FrameI {
		return nil, fmt.Errorf("core: segment %d does not start with an I frame", i)
	}
	return sub, nil
}

// Fetch implements stream.Fetcher from memory: the prepared stream is its
// own origin. Segments are served as independently decodable sub-streams
// (SegmentStream), models as the same payloads the wire ops serve.
func (p *Prepared) Fetch(_ context.Context, kind stream.Kind, arg int) ([]byte, error) {
	sm := p.Models[arg]
	switch {
	case kind == stream.KindSegment:
		sub, err := p.SegmentStream(arg)
		if err != nil {
			return nil, err
		}
		return sub.Marshal(), nil
	case kind == stream.KindModel && sm != nil:
		return sm.Bytes, nil
	case kind == stream.KindModelDelta && sm != nil && sm.Delta != nil && sm.Delta.DeltaOK:
		return sm.Delta.Bytes, nil
	}
	return nil, fmt.Errorf("core: prepared stream has no artifact %d/%d", kind, arg)
}

// buildManifest splits the coded stream's bytes across segments by display
// index and attaches model labels.
func buildManifest(p *Prepared) *stream.Manifest {
	man := &stream.Manifest{Models: make(map[int]stream.ModelInfo)}
	// Segments tile the display range contiguously, so one precomputed
	// display→segment table replaces a per-frame scan of the segment list
	// (O(frames+segments) instead of O(frames×segments)).
	last := len(p.Segments) - 1
	segIndex := make([]int, p.Segments[last].End)
	for i, s := range p.Segments {
		for d := s.Start; d < s.End && d < len(segIndex); d++ {
			segIndex[d] = i
		}
	}
	segOf := func(display int) int {
		if display >= 0 && display < len(segIndex) {
			return segIndex[display]
		}
		return last
	}
	segBytes := make([]int, len(p.Segments))
	for _, f := range p.Stream.Frames {
		segBytes[segOf(f.Display)] += len(f.Data) + 9 // payload + frame header
	}
	for i, s := range p.Segments {
		label := -1
		if i < len(p.Assign) {
			label = p.Assign[i]
		}
		if _, ok := p.Models[label]; !ok {
			label = -1
		}
		man.Segments = append(man.Segments, stream.SegmentInfo{
			Index: i, Start: s.Start, End: s.End, Bytes: segBytes[i], ModelLabel: label,
		})
	}
	if bb := p.backboneLabel(); bb >= 0 {
		man.Backbone = &stream.BackboneInfo{Label: bb}
	}
	for label, sm := range p.Models {
		mi := stream.ModelInfo{Label: label, Bytes: len(sm.Bytes)}
		if sm.Quant != nil && sm.Quant.Int8OK {
			mi.Int8 = true
			mi.ActScales = sm.Quant.ActScales
		}
		if sm.Delta != nil && sm.Delta.DeltaOK && man.Backbone != nil {
			// Delta-shipped model: Bytes is what travels on the wire (the
			// dcW5 payload); FullBytes and Digest describe the assembled
			// weights the client verifies before arming.
			mi.Delta = true
			mi.Digest = stream.PayloadDigest(sm.Bytes)
			mi.FullBytes = len(sm.Bytes)
			mi.Bytes = len(sm.Delta.Bytes)
		} else if man.Backbone != nil && label == man.Backbone.Label {
			mi.Digest = stream.PayloadDigest(sm.Bytes) // what the backbone fetch verifies
		}
		man.Models[label] = mi
	}
	return man
}

// minPSNRGap is the largest PSNR shortfall (dB) versus the big model at
// which a candidate of the minimum-working-model search still counts as
// "comparable".
const minPSNRGap = 1.0

// FindMinimumWorkingModel implements the Appendix A.1 search: train the
// big model on the video's I frames to establish the reference quality,
// then walk the candidate grid in ascending size and return the first
// configuration whose trained quality is within minPSNRGap (1 dB) of it.
func FindMinimumWorkingModel(low, high []*video.RGB, cfg ServerConfig) (edsr.Config, error) {
	return FindMinimumWorkingModelCtx(context.Background(), low, high, cfg)
}

// FindMinimumWorkingModelCtx is FindMinimumWorkingModel with
// cancellation: ctx is polled before every training step, so a cancelled
// search stops within one step and returns ctx.Err().
func FindMinimumWorkingModelCtx(ctx context.Context, low, high []*video.RGB, cfg ServerConfig) (edsr.Config, error) {
	cfg = cfg.withDefaults()
	grid := cfg.MicroGrid
	if len(grid) == 0 {
		grid = []edsr.Config{
			{Filters: 4, ResBlocks: 1},
			{Filters: 4, ResBlocks: 2},
			{Filters: 8, ResBlocks: 2},
			{Filters: 8, ResBlocks: 4},
			{Filters: 16, ResBlocks: 4},
		}
	}
	opts := cfg.SearchTrain
	if opts.Steps == 0 {
		opts = cfg.Train
	}
	pairs := make([]edsr.Pair, len(low))
	for i := range low {
		pairs[i] = edsr.Pair{Low: low[i], High: high[i]}
	}
	// Every candidate is evaluated in one workspace and then dropped.
	ws := new(edsr.Workspace)
	ref, err := trainedMSE(ctx, ws, cfg.BigModel, pairs, opts, cfg.Seed+50)
	if err != nil {
		return edsr.Config{}, err
	}
	refPSNR := mseToPSNR(ref)
	var last edsr.Config
	for _, cand := range grid {
		last = cand
		mse, err := trainedMSE(ctx, ws, cand, pairs, opts, cfg.Seed+60)
		if err != nil {
			return edsr.Config{}, err
		}
		if refPSNR-mseToPSNR(mse) <= minPSNRGap {
			return cand, nil
		}
	}
	// No candidate matched; return the largest (paper's constraint caps K
	// accordingly).
	return last, nil
}

func trainedMSE(ctx context.Context, ws *edsr.Workspace, cfg edsr.Config, pairs []edsr.Pair, opts edsr.TrainOptions, seed int64) (float64, error) {
	m, err := edsr.New(cfg, seed)
	if err != nil {
		return 0, err
	}
	opts.Seed = seed
	opts.Stop = func() bool { return ctx.Err() != nil }
	if _, err := m.Train(pairs, opts); err != nil {
		if errors.Is(err, edsr.ErrStopped) {
			return 0, ctx.Err()
		}
		return 0, err
	}
	m.SetWorkspace(ws)
	return m.EvalMSE(pairs), nil
}

// mseToPSNR caps the quality package's conversion at 99 dB so a perfect
// reconstruction compares finitely during the model search.
func mseToPSNR(mse float64) float64 {
	if mse <= 0 {
		return 99
	}
	return quality.MSEToPSNR(mse)
}
