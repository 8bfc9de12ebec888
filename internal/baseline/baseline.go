// Package baseline implements the two state-of-the-art systems the paper
// compares against (§4):
//
//   - NAS (Yeo et al., OSDI '18): one large content-aware SR model per
//     video, trained on all frames, applied to every decoded frame.
//   - NEMO (Yeo et al., MobiCom '20): one large model per video, applied
//     only to selected anchor frames. Per the paper's evaluation setup,
//     NEMO is simplified to enhance exactly the I frames.
//
// Both download their single model at the start of the stream; neither
// benefits from dcSR's per-cluster micro models or model caching.
package baseline

import (
	"fmt"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// Method selects a baseline behaviour.
type Method int

// The evaluated methods.
const (
	// NAS applies the big model to every frame (post-decode).
	NAS Method = iota
	// NEMO applies the big model to I frames inside the decode loop.
	NEMO
	// Low performs no enhancement (the "LOW" series of paper Fig 9).
	Low
)

// String names the method as in the paper's figures.
func (m Method) String() string {
	switch m {
	case NAS:
		return "NAS"
	case NEMO:
		return "NEMO"
	case Low:
		return "LOW"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config parameterizes baseline preparation.
type Config struct {
	Model edsr.Config // big-model architecture (one per video)
	Train edsr.TrainOptions
	// TrainFrameStride subsamples the video's frames for training pairs
	// (the big model trains on all frames; a stride keeps CPU training
	// tractable while preserving the all-frames character). Default 1.
	TrainFrameStride int
	Seed             int64
}

// Prepared bundles a trained baseline for one video.
type Prepared struct {
	Method     Method
	Model      *edsr.Model
	ModelBytes int
	Stream     *codec.Stream
	Train      *edsr.TrainResult
	TrainFLOPs float64
}

// Prepare trains the baseline's big model for one video. frames are the
// pristine source frames; st is the already-encoded low-quality stream the
// client will download (shared with dcSR for a like-for-like comparison).
func Prepare(method Method, frames []*video.YUV, st *codec.Stream, cfg Config) (*Prepared, error) {
	p := &Prepared{Method: method, Stream: st}
	if method == Low {
		return p, nil
	}
	if cfg.Model.Filters == 0 {
		cfg.Model = edsr.Config{Filters: 16, ResBlocks: 6}
	}
	if cfg.TrainFrameStride <= 0 {
		cfg.TrainFrameStride = 1
	}
	var dec codec.Decoder
	lowFrames, err := dec.Decode(st)
	if err != nil {
		return nil, fmt.Errorf("baseline: decoding stream: %w", err)
	}
	if len(lowFrames) != len(frames) {
		return nil, fmt.Errorf("baseline: stream has %d frames, source %d", len(lowFrames), len(frames))
	}
	var pairs []edsr.Pair
	for i := 0; i < len(frames); i += cfg.TrainFrameStride {
		pairs = append(pairs, edsr.Pair{Low: lowFrames[i].ToRGB(), High: frames[i].ToRGB()})
	}
	m, err := edsr.New(cfg.Model, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	opts := cfg.Train
	opts.Seed = cfg.Seed + 8
	tr, err := m.Train(pairs, opts)
	if err != nil {
		return nil, fmt.Errorf("baseline: training big model: %w", err)
	}
	p.Model = m
	p.ModelBytes = m.SizeBytes()
	p.Train = tr
	p.TrainFLOPs = tr.TrainFLOPs
	return p, nil
}

// PlayResult is a baseline playback outcome.
type PlayResult struct {
	Frames []*video.YUV
	Decode codec.DecodeStats
	// Inferences counts SR forward passes (NAS: every frame).
	Inferences int
	// TotalBytes is video bytes plus the single model download.
	TotalBytes int
}

// Play decodes and enhances per the method's schedule: NEMO plays the
// stream as a dcSR viewer plays a segment (stream.PlaySegment), NAS
// enhances every frame of the plain decode.
func (p *Prepared) Play() (*PlayResult, error) {
	var inLoop *edsr.Model
	if p.Method == NEMO {
		inLoop = p.Model
	}
	dec := codec.Decoder{Mode: codec.PropagateDelta}
	frames, err := stream.PlaySegment(&dec, p.Stream, inLoop, false)
	if err != nil {
		return nil, err
	}
	res := &PlayResult{Frames: frames, Decode: dec.Stats, Inferences: dec.Stats.Enhanced,
		TotalBytes: p.Stream.Bytes() + p.ModelBytes}
	if p.Method == NAS {
		// NAS enhances every frame after decoding.
		for i, f := range frames {
			frames[i] = p.Model.EnhanceYUV(f)
		}
		res.Inferences = len(frames)
	}
	return res, nil
}
