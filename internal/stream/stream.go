// Package stream is dcSR's client: the manifest mapping video segments to
// micro-model labels, and the one playback engine every client runs —
// paper Algorithm 1 (walk the segments, fetch a micro model only on cache
// miss, patch it into the decoder's I-frame hook) with byte-accurate
// download accounting (paper Fig 10).
//
//	backend ──▶ Fetcher ──▶ Assembler ──▶ Session ──▶ codec.Decoder
//	(core.Prepared,        (backbone once,  (cache, int8 arming,
//	 transport.Client       delta, verify,   degrade, accounting)
//	 .Video(id); retries    full fallback)
//	 live inside)
//
// A Fetcher downloads one artifact; the two backends differ only there.
// Every playback, in process or over the wire, is the same two calls:
// Open over the backend with Options (DefaultOptions unless the caller
// chooses otherwise), then Session.Play, whose span parent rides the ctx
// (obs.WithSpan). Assembler owns the model-stream order, Session owns the
// session policy and is the single accounting record, and Session.Play
// drives the decoder. NewSession opens a manifest-only session over the
// manifest's declared sizes — the bandwidth experiments' simulation —
// through the same code.
//
// # Fault model
//
// Algorithm 1 assumes every model fetch succeeds; Session extends it
// with graceful degradation. A failed model fetch degrades the segment
// (Event.Degraded, Session.DegradedSegments) instead of aborting the
// walk: playback continues without SR for that segment, and because the
// cache only ever records successful downloads, the label is retried
// lazily the next time a segment references it. The degraded counters
// surface as the obs metrics degraded_segments_total and
// model_fetch_failures_total. A failed segment fetch aborts — there is
// nothing to show without video bytes. See docs/OPERATIONS.md for the
// full failure-mode catalogue and DESIGN.md for the retry/degrade state
// machine.
//
// A Session is single-goroutine: segments are walked strictly in order,
// one at a time. Any number of Sessions may share one transport.Client,
// which pipelines their requests on one connection.
package stream

import (
	"context"
	"fmt"
	"sort"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// SegmentInfo describes one video segment in a manifest.
type SegmentInfo struct {
	Index      int
	Start, End int // frame range [Start, End)
	Bytes      int // serialized segment size
	ModelLabel int // micro model this segment needs; -1 for none
}

// ModelInfo describes one downloadable micro model.
type ModelInfo struct {
	Label int
	Bytes int
	// Int8 reports that the model passed the server-side int8
	// calibration quality gate: its manifest entry ships activation
	// scales and the client may run it on the quantized kernel path.
	// False (including manifests from servers predating the field)
	// keeps the client on float32.
	Int8 bool `json:"int8,omitempty"`
	// ActScales are the per-conv activation quantization scales the
	// server calibrated from the cluster's own frames; a client feeds
	// them to Model.CalibrateFromScales to arm the int8 path
	// bit-identically to the origin. Only set when Int8 is true.
	ActScales []float32 `json:"act_scales,omitempty"`
	// Delta marks a model shipped as a dcW5 delta against the manifest's
	// shared backbone: Bytes is the delta payload (the wire download),
	// and the client assembles the full weights locally. False (including
	// manifests from servers predating the field) means Bytes is the
	// complete serialized model.
	Delta bool `json:"delta,omitempty"`
	// Digest is the hex SHA-256 of the complete serialized weights: a
	// client verifies an assembled or fetched model against it before
	// arming it. Set on every delta entry and on the backbone's.
	Digest string `json:"digest,omitempty"`
	// FullBytes is the size of the complete serialized model when Delta
	// is true (what a fallback full fetch downloads); zero otherwise.
	FullBytes int `json:"full_bytes,omitempty"`
}

// BackboneInfo names the shared backbone model the manifest's delta
// entries are encoded against. The backbone is one of the cluster models:
// its Models entry gives its size and digest, and it is fetched as that
// model (KindModel), at most once per Backbone holder.
type BackboneInfo struct {
	Label int `json:"label"`
}

// Manifest is the per-video index a dcSR client downloads first: the
// segment list (HashMap_L of Algorithm 1 is the Segment→ModelLabel
// mapping) and the model directory.
type Manifest struct {
	Segments []SegmentInfo
	Models   map[int]ModelInfo
	// Backbone, when non-nil, is the shared model that every Delta entry
	// in Models is encoded against (the model-stream representation);
	// nil means every model ships complete.
	Backbone *BackboneInfo
}

// Validate checks internal consistency: frame ranges must be non-empty,
// model references must resolve, segment sizes must be non-negative,
// every model must have a positive payload (a zero- or negative-byte
// model is undeserializable and would silently corrupt the byte
// accounting the bandwidth experiments depend on), segment indices must
// be unique, and each Models entry's Label must match its map key. The
// last two guard against silent shadowing: duplicate indices or
// mislabeled models would make lookups quietly resolve to the wrong
// payload instead of failing. A backbone must name an entry carrying a
// digest, and a delta entry needs a backbone and a digest and size.
func (m *Manifest) Validate() error {
	seen := make(map[int]bool, len(m.Segments))
	for _, s := range m.Segments {
		if seen[s.Index] {
			return fmt.Errorf("stream: duplicate segment index %d", s.Index)
		}
		seen[s.Index] = true
		if s.ModelLabel >= 0 {
			if _, ok := m.Models[s.ModelLabel]; !ok {
				return fmt.Errorf("stream: segment %d references unknown model %d", s.Index, s.ModelLabel)
			}
		}
		if s.End <= s.Start {
			return fmt.Errorf("stream: segment %d has empty frame range", s.Index)
		}
		if s.Bytes < 0 {
			return fmt.Errorf("stream: segment %d has negative size %d", s.Index, s.Bytes)
		}
	}
	if b := m.Backbone; b != nil {
		bm, ok := m.Models[b.Label]
		if !ok {
			return fmt.Errorf("stream: backbone label %d has no model entry", b.Label)
		}
		if bm.Digest == "" {
			return fmt.Errorf("stream: backbone model %d missing digest", b.Label)
		}
	}
	for label, mi := range m.Models {
		if mi.Label != label {
			return fmt.Errorf("stream: model keyed %d carries label %d", label, mi.Label)
		}
		if mi.Bytes <= 0 {
			return fmt.Errorf("stream: model %d has non-positive size %d", label, mi.Bytes)
		}
		if mi.Delta {
			if m.Backbone == nil {
				return fmt.Errorf("stream: delta model %d but manifest carries no backbone", label)
			}
			if mi.Digest == "" || mi.FullBytes <= 0 {
				return fmt.Errorf("stream: delta model %d missing full-payload digest or size", label)
			}
		}
	}
	return nil
}

// MaxArtifactBytes bounds any one downloadable artifact (64 MiB); the
// transport enforces the same number on every response.
const MaxArtifactBytes = 64 << 20

// ValidateFor is Validate plus the bound on the model configuration that
// arrived with the manifest, checked arithmetically before anything is
// built from it: the configuration must serialize to at most
// MaxArtifactBytes, and every model entry must declare exactly one of
// the two sizes a complete payload of it has — float32 (SizeBytes) or
// int8 grid (GridSizeBytes) — so a hostile configuration is an error here
// rather than an allocation.
func (m *Manifest) ValidateFor(cfg edsr.Config) error {
	if err := m.Validate(); err != nil {
		return err
	}
	size, grid := cfg.SizeBytes(), cfg.GridSizeBytes()
	if size > MaxArtifactBytes {
		return fmt.Errorf("stream: model configuration %+v is invalid or serializes past the %d-byte artifact bound", cfg, MaxArtifactBytes)
	}
	for label, mi := range m.Models {
		full := mi.Bytes
		if mi.Delta {
			full = mi.FullBytes
		}
		if int64(full) != size && int64(full) != grid {
			return fmt.Errorf("stream: model %d declares %d bytes but configuration %v serializes to %d (float32) or %d (int8 grid)", label, full, cfg, size, grid)
		}
	}
	return nil
}

// TotalVideoBytes sums all segment payloads.
func (m *Manifest) TotalVideoBytes() int {
	n := 0
	for _, s := range m.Segments {
		n += s.Bytes
	}
	return n
}

// TotalModelBytes sums the unique model payloads.
func (m *Manifest) TotalModelBytes() int {
	n := 0
	for _, mi := range m.Models {
		n += mi.Bytes
	}
	return n
}

// ModelLabels returns the sorted distinct model labels.
func (m *Manifest) ModelLabels() []int {
	labels := make([]int, 0, len(m.Models))
	for l := range m.Models {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	return labels
}

// Event records one segment step of a session walk-through (the rows of
// paper Fig 7).
type Event struct {
	Segment         int
	ModelLabel      int
	ModelDownloaded bool // false = cache hit, no model needed, or degraded
	SegmentBytes    int
	ModelBytes      int
	// Degraded marks a segment whose model fetch failed: it plays without
	// SR and its label stays uncached so the next reference retries.
	Degraded bool
}

// Accounting is a session's download and cache totals — what local and
// wire playback of one stream must agree on.
type Accounting struct {
	VideoBytes int
	ModelBytes int
	// BackboneBytes, DeltaModelBytes and FullModelBytes break ModelBytes
	// down by what was actually downloaded and verified: the shared
	// backbone (once per session), per-cluster dcW5 deltas, and complete
	// models (non-delta entries, backbone-less manifests, and assembly
	// fallbacks). The three always sum to ModelBytes.
	BackboneBytes   int
	DeltaModelBytes int
	FullModelBytes  int
	CacheHits       int
	// CacheMisses counts segments whose model had to be downloaded; it
	// exceeds Downloads by the failed attempts, so hit+miss covers exactly
	// the segments that needed a model.
	CacheMisses int
	// Downloads counts successful model downloads.
	Downloads int
	// DegradedSegments counts segments whose model fetch failed.
	DegradedSegments int
	// Evictions counts cached models evicted to stay within the byte
	// budget; CacheBytes is what the resident models are charged now: a
	// cached model costs its weights, charged at the size of the payload
	// it came from (Assembler.Model).
	Evictions  int
	CacheBytes int64
}

// Options configures a Session, whichever Fetcher backs it: the
// in-memory *core.Prepared or a transport.Client.Video. DefaultOptions is
// the session every client plays unless told otherwise.
type Options struct {
	// Enhance toggles SR entirely: false fetches no models and plays the
	// raw low-quality video (the "LOW" series of paper Fig 9).
	Enhance bool
	// Int8 arms models the manifest advertises as int8-gated with the
	// origin's activation scales (ModelInfo.ActScales), so they run on the
	// quantized kernels bit-identically to the origin; false keeps every
	// model on float32 (the precision ablation).
	Int8 bool
	// CacheBudget bounds the model cache in bytes: a cached model costs
	// its weights, charged at the size of the one payload it came from
	// (Assembler.Model names which). < 0 unbounded (Algorithm 1), 0
	// caching disabled (the §3.2.2 ablation), > 0 least-recently-used
	// eviction past the budget. A model the budget cannot hold enhances
	// its own segment and is dropped. The weights are all a cached model
	// costs: activations live in the session's one workspace, a constant
	// whatever the budget or the number of models.
	CacheBudget int64
	// Propagation selects how enhancement reaches P/B frames.
	Propagation codec.Propagation
	// Obs receives segments_fetched_total (its change between two
	// scrapes is the fetch rate), cache_hits_total, cache_misses_total, video_bytes_total,
	// model_bytes_total, the degrade and model-stream counters and the
	// decoder's metrics, and its Log the degrade, fallback and
	// per-segment debug lines; nil disables them.
	Obs *obs.Obs
}

// DefaultOptions returns the default session: enhancement on, int8 wherever
// the manifest arms it, an unbounded model cache (Algorithm 1) and
// drift-free delta propagation, with no Obs.
func DefaultOptions() Options {
	return Options{Enhance: true, Int8: true, CacheBudget: -1, Propagation: codec.PropagateDelta}
}

// Session is one client streaming session and its accounting record:
// segments are downloaded in order and each segment's micro model is
// fetched only on cache miss (Algorithm 1). The cache holds the models
// under a byte budget (Options.CacheBudget): when the budget is exceeded
// the least-recently-used model is evicted, and an evicted label's next
// reference re-fetches it lazily — same retry path as a degraded fetch,
// driven by capacity instead of failure. The zero value is not usable;
// call Open or NewSession.
type Session struct {
	Options
	// fetcher performs every download (Open's f; wrap f to inject faults
	// or time fetches). A fetcher error on a model artifact degrades the
	// segment; on a segment it aborts the step.
	fetcher Fetcher

	Events []Event
	Accounting

	manifest *Manifest
	config   edsr.Config
	cache    *modelCache
	backbone Backbone
	// ws is where every model of the session runs: they enhance one at a
	// time on the session's goroutine, so they share one working set and
	// an evicted label's rebuilt model costs no activation memory.
	ws edsr.Workspace
}

// Open starts a session over manifest m whose models are built as cfg and
// downloaded through f. The manifest and configuration are validated
// here, once, before anything is fetched or built. The zero cfg opens an
// accounting-only session: payloads are fetched and costed, and their
// labels cached at that charge, but never deserialized.
func Open(m *Manifest, cfg edsr.Config, f Fetcher, o Options) (*Session, error) {
	builds := cfg != (edsr.Config{})
	err := m.Validate()
	if builds {
		err = m.ValidateFor(cfg)
	}
	if err != nil {
		return nil, err
	}
	return &Session{Options: o, fetcher: f, manifest: m, config: cfg,
		cache: newModelCache(o.CacheBudget)}, nil
}

// NewSession starts a manifest-only session: every download succeeds
// instantly at its manifest-declared size, and budget bounds the model
// cache as Options.CacheBudget does (< 0 unbounded, the paper's
// Algorithm 1; 0 every segment re-downloads its model, the ablation of
// paper §3.2.2).
func NewSession(m *Manifest, budget int64) (*Session, error) {
	return Open(m, edsr.Config{}, declared{m}, Options{Enhance: true, CacheBudget: budget})
}

// Run steps every segment in order and returns the total bytes
// transferred.
func (s *Session) Run() int {
	for _, seg := range s.manifest.Segments {
		s.Step(seg)
	}
	return s.TotalBytes()
}

// Step is Fetch for manifest-only sessions: it returns the step's Event
// (an empty one when the step failed and downloaded nothing).
func (s *Session) Step(seg SegmentInfo) Event {
	if _, _, err := s.Fetch(context.Background(), seg); err != nil {
		return Event{Segment: seg.Index, ModelLabel: seg.ModelLabel}
	}
	return s.Events[len(s.Events)-1]
}

// Fetch is the download half of one segment step (Algorithm 1 lines 3–6):
// the segment payload, then — on cache miss — its micro model, armed for
// int8 when the manifest says so. A failed model fetch degrades the step
// (nil model) unless ctx is done; a failed segment fetch is the error.
// The step's "segment_fetch" span (the rows of paper Fig 7 as a trace) is
// a child of the span ctx carries, and the step's requests hang their
// attempt spans off it; a ctx without a span records none.
func (s *Session) Fetch(ctx context.Context, seg SegmentInfo) ([]byte, *edsr.Model, error) {
	sp := obs.SpanFrom(ctx).Child("segment_fetch")
	defer sp.End()
	sp.Set("segment", seg.Index)
	ctx = obs.WithSpan(ctx, sp)
	data, err := s.fetcher.Fetch(ctx, KindSegment, seg.Index)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: segment %d: %w", seg.Index, err)
	}
	ev := Event{Segment: seg.Index, ModelLabel: seg.ModelLabel, SegmentBytes: seg.Bytes}
	s.VideoBytes += seg.Bytes
	s.Obs.Counter("segments_fetched_total").Inc()
	s.Obs.Counter("video_bytes_total").Add(int64(seg.Bytes))
	var model *edsr.Model
	if s.Enhance && seg.ModelLabel >= 0 {
		model, err = s.model(ctx, sp, &ev)
	}
	s.Events = append(s.Events, ev)
	s.Obs.Logger().Debug("stream: segment fetched", "segment", seg.Index, "bytes", seg.Bytes, "model", seg.ModelLabel)
	return data, model, err
}

// model serves ev's label from the cache or downloads it.
func (s *Session) model(ctx context.Context, sp *obs.Span, ev *Event) (*edsr.Model, error) {
	label := ev.ModelLabel
	if m, hit := s.cache.get(label, s.Obs); hit {
		s.CacheHits++
		s.Obs.Counter("cache_hits_total").Inc()
		sp.Set("cache", "hit")
		return m, nil
	}
	s.CacheMisses++
	s.Obs.Counter("cache_misses_total").Inc()
	a := Assembler{Fetcher: s.fetcher, Manifest: s.manifest, Config: s.config,
		Backbone: &s.backbone, Obs: s.Obs}
	m, charge, cost, err := a.Model(ctx, label)
	// Whatever was downloaded and verified is accounted, even when the
	// model as a whole then failed (a backbone whose delta did not arrive
	// still serves the labels after it).
	ev.ModelBytes = cost.Total()
	s.BackboneBytes += cost.Backbone
	s.DeltaModelBytes += cost.Delta
	s.FullModelBytes += cost.Full
	s.ModelBytes += ev.ModelBytes
	s.Obs.Counter("model_bytes_total").Add(int64(ev.ModelBytes))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Degrade instead of aborting: the segment plays without SR and
		// the label stays uncached so its next reference retries the
		// fetch (the cache only ever holds successful downloads).
		ev.Degraded = true
		s.DegradedSegments++
		s.Obs.Counter("model_fetch_failures_total").Inc()
		s.Obs.Counter("degraded_segments_total").Inc()
		sp.Set("cache", "degraded")
		s.Obs.Logger().Warn("stream: model fetch failed; playing segment without SR",
			"segment", ev.Segment, "model", label, "err", err)
		return nil, nil
	}
	if m != nil {
		m.SetWorkspace(&s.ws)
	}
	if mi := s.manifest.Models[label]; m != nil && s.Int8 && mi.Int8 && len(mi.ActScales) > 0 {
		// A bad scale vector (origin/config mismatch) is not worth
		// degrading over: the float32 path is always available.
		if cerr := m.CalibrateFromScales(mi.ActScales); cerr != nil {
			s.Obs.Logger().Warn("stream: int8 calibration rejected; model stays float32", "model", label, "err", cerr)
		}
	}
	ev.ModelDownloaded = true
	s.Downloads++
	sp.Set("cache", "miss")
	sp.Set("model_bytes", ev.ModelBytes)
	if evicted := s.cache.put(label, m, charge, s.Obs); evicted > 0 {
		s.Evictions += evicted
		sp.Set("evicted", evicted)
	}
	s.CacheBytes = s.cache.bytes
	return m, nil
}

// Play runs the whole session: per segment, Fetch, then decode with the
// segment's model patched into the decoder's I-frame hook. It returns the
// frames in display order and the decoder's statistics. The segment spans
// hang off the span ctx carries, or, when it carries none, off a "play"
// root Play starts under Options.Obs.
func (s *Session) Play(ctx context.Context) ([]*video.YUV, codec.DecodeStats, error) {
	if obs.SpanFrom(ctx) == nil {
		root := s.Obs.Start("play")
		defer root.End()
		ctx = obs.WithSpan(ctx, root)
	}
	dec := codec.Decoder{Mode: s.Propagation, Obs: s.Obs}
	var out []*video.YUV
	for _, seg := range s.manifest.Segments {
		data, model, err := s.Fetch(ctx, seg)
		if err != nil {
			return nil, dec.Stats, err
		}
		sub, err := codec.Unmarshal(data)
		if err != nil {
			return nil, dec.Stats, fmt.Errorf("stream: segment %d: %w", seg.Index, err)
		}
		dec.Enhancer = nil
		if model != nil {
			dec.Enhancer = codec.PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, codec.Precision) {
				if model.Int8Ready() {
					return model.EnhanceYUVInt8(f), codec.PrecisionInt8
				}
				return model.EnhanceYUV(f), codec.PrecisionFloat32
			})
		}
		frames, err := dec.Decode(sub)
		if err != nil {
			return nil, dec.Stats, fmt.Errorf("stream: decoding segment %d: %w", seg.Index, err)
		}
		out = append(out, frames...)
	}
	return out, dec.Stats, nil
}

// TotalBytes returns video + model bytes transferred so far.
func (s *Session) TotalBytes() int { return s.VideoBytes + s.ModelBytes }

// CacheContents returns the sorted labels currently cached.
func (s *Session) CacheContents() []int { return s.cache.labels() }
