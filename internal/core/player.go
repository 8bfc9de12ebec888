package core

import (
	"context"
	"fmt"

	"dcsr/internal/codec"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// PlayResult is the outcome of one client playback pass.
type PlayResult struct {
	// Frames are the displayed (enhanced) frames in display order.
	Frames []*video.YUV
	// Session is the finished session — the download/caching accounting
	// record (Algorithm 1). Its fields read through: CacheHits and
	// CacheMisses (which cover exactly the segments that reference a
	// model), ModelBytes with its BackboneBytes/DeltaModelBytes/
	// FullModelBytes breakdown, DegradedSegments (only non-zero when
	// Player.Fetcher is set and returned errors; see the fault model in
	// package stream), Evictions and CacheBytes (≤ Player.CacheBudget
	// when one is set), TotalBytes.
	*stream.Session
	// Decode holds decoder statistics including enhancement count.
	Decode codec.DecodeStats
}

// Player is the client-side dcSR played in process: the playback engine
// (stream.Session) over the prepared stream as its download backend. It
// walks the manifest downloading segments and (on cache miss) micro
// models, and decodes each segment with its micro model patched into the
// decoder's I-frame enhancement hook (paper Fig 6) — the same code, and
// the same pixels, as a client streaming over the wire.
type Player struct {
	prepared *Prepared
	// UseCache toggles micro-model caching (paper §3.2.2); default true.
	UseCache bool
	// CacheBudget bounds the model cache in bytes of serialized weights:
	// past the budget the least-recently-used model is evicted and its
	// next reference re-downloads it. 0 (the default) leaves the cache
	// unbounded, the paper's Algorithm 1 behaviour. Ignored when
	// UseCache is false.
	CacheBudget int64
	// Enhance toggles SR entirely (false plays the raw low-quality video,
	// the "LOW" series of paper Fig 9).
	Enhance bool
	// Int8 lets the player use the quantized kernel path for models the
	// manifest advertises as int8-calibrated (ModelInfo.Int8); models
	// that failed the server's quality gate — or predate it — always run
	// float32. Default true; false forces float32 everywhere (the
	// precision ablation).
	Int8 bool
	// Propagation selects how enhancement reaches P/B frames; the default
	// is codec.PropagateDelta (drift-free). codec.PropagateReplace is the
	// paper-literal DPB replacement, kept for the propagation ablation.
	Propagation codec.Propagation
	// Obs receives playback metrics (cache hit/miss/bytes counters, the
	// decoder's enhance-latency histogram) and a play span tree with one
	// segment_fetch child per segment; nil disables instrumentation.
	Obs *obs.Obs
	// Fetcher is the download backend: the prepared stream itself unless
	// replaced — typically by a decorator around the *Prepared that
	// injects faults or times fetches. A model artifact it fails to
	// deliver degrades the affected segments — they decode without SR
	// enhancement and are counted in PlayResult.DegradedSegments —
	// instead of aborting playback.
	Fetcher stream.Fetcher
}

// NewPlayer builds a player over a prepared stream.
func NewPlayer(p *Prepared) *Player {
	return &Player{prepared: p, UseCache: true, Enhance: true, Int8: true, Propagation: codec.PropagateDelta, Fetcher: p}
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

// Play runs the full streaming session: per-segment downloads with model
// caching, each segment decoded with in-loop I-frame enhancement.
func (pl *Player) Play() (*PlayResult, error) {
	p, o := pl.prepared, pl.Obs
	root := o.Start("play")
	defer root.End()
	budget := int64(-1)
	switch {
	case !pl.UseCache:
		budget = 0
	case pl.CacheBudget > 0:
		budget = pl.CacheBudget
	}
	sess, err := stream.Open(p.Manifest, p.MicroConfig, pl.Fetcher, stream.Options{
		Enhance: pl.Enhance, Int8: pl.Int8, CacheBudget: budget,
		Propagation: pl.Propagation, Obs: o, Log: o.Logger(),
	})
	if err != nil {
		return nil, err
	}
	sess.Trace = root
	frames, dec, err := sess.Play(context.Background())
	if err != nil {
		return nil, fmt.Errorf("core: playback: %w", err)
	}
	root.Set("video_bytes", sess.VideoBytes)
	root.Set("model_bytes", sess.ModelBytes)
	root.Set("frames", dec.Frames())
	root.Set("enhanced", dec.Enhanced)
	o.Logger().Info("play: session complete",
		"segments", len(p.Manifest.Segments), "cache_hits", sess.CacheHits,
		"cache_misses", sess.CacheMisses, "degraded", sess.DegradedSegments,
		"bytes", sess.TotalBytes())
	return &PlayResult{Frames: frames, Session: sess, Decode: dec}, nil
}
