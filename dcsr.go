// Package dcsr is the public API of this repository's reproduction of
// "dcSR: Practical Video Quality Enhancement Using Data-Centric Super
// Resolution" (Baek, Dasari, Das, Ryoo — CoNEXT 2021).
//
// dcSR replaces the single bulky per-video super-resolution model of
// NAS/NEMO-style systems with a handful of micro SR models, one per
// cluster of visually similar video segments, and applies them to I frames
// inside the video decoder so the enhancement propagates to P and B frames
// through motion-compensated prediction.
//
// # Server side
//
//	clip := dcsr.GenerateVideo(dcsr.GenreConfig(dcsr.GenreSports, 160, 96, 1))
//	prep, err := dcsr.Prepare(clip.YUVFrames(), clip.FPS, dcsr.ServerConfig{...})
//
// Prepare splits the video at scene cuts, encodes a low-quality stream,
// extracts VAE features from segment I-frames, clusters them with global
// k-means (K chosen by silhouette coefficient under the model-size
// constraint), and trains one micro EDSR model per cluster.
//
// # Client side
//
//	sess, err := dcsr.Open(prep, dcsr.DefaultSessionOptions())
//	frames, stats, err := sess.Play(ctx)
//
// Play walks the session over the prepared stream (downloading segments,
// fetching micro models on cache miss per the paper's Algorithm 1) and
// decodes it with each segment's micro model patched into the decoder's
// I-frame enhancement hook — the engine a wire client runs too.
//
// Everything is pure Go with no dependencies outside the standard library.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package dcsr

import (
	"context"
	"io"

	"dcsr/internal/baseline"
	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/device"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// Core pipeline (the paper's contribution).
type (
	// ServerConfig parameterizes the server-side dcSR pipeline.
	ServerConfig = core.ServerConfig
	// Prepared is the server pipeline output: stream + manifest + models.
	Prepared = core.Prepared
	// SegmentModel is one trained micro model with its serialized weights.
	SegmentModel = core.SegmentModel
)

// Prepare runs the full server-side dcSR pipeline over raw video frames.
func Prepare(frames []*YUV, fps int, cfg ServerConfig) (*Prepared, error) {
	return core.Prepare(frames, fps, cfg)
}

// PrepareCtx is Prepare with cancellation and checkpoint/resume: ctx is
// honoured between pipeline stages, between per-cluster training jobs,
// and inside each training loop (one step granularity), and a
// ServerConfig.CheckpointDir lets an interrupted run resume from its
// last completed work; once the run finishes, that directory is an
// artifact LoadArtifact opens.
func PrepareCtx(ctx context.Context, frames []*YUV, fps int, cfg ServerConfig) (*Prepared, error) {
	return core.PrepareCtx(ctx, frames, fps, cfg)
}

// FindMinimumWorkingModel exposes the Appendix A.1 configuration search.
func FindMinimumWorkingModel(low, high []*RGB, cfg ServerConfig) (EDSRConfig, error) {
	return core.FindMinimumWorkingModel(low, high, cfg)
}

// Video substrate.
type (
	// YUV is a planar 4:2:0 frame (decoder/DPB format).
	YUV = video.YUV
	// RGB is an interleaved RGB frame (SR model format).
	RGB = video.RGB
	// Clip is a generated synthetic video with ground-truth scene labels.
	Clip = video.Clip
	// GenConfig parameterizes synthetic video generation.
	GenConfig = video.GenConfig
	// Cue schedules one scene for a number of frames in a GenConfig.
	Cue = video.Cue
	// Genre selects an evaluation content preset.
	Genre = video.Genre
)

// Evaluation genres (the paper's "6 representative videos").
const (
	GenreSports      = video.GenreSports
	GenreMusic       = video.GenreMusic
	GenreDocumentary = video.GenreDocumentary
	GenreGaming      = video.GenreGaming
	GenreNews        = video.GenreNews
	GenreAnimation   = video.GenreAnimation
)

// GenerateVideo renders a deterministic synthetic clip.
func GenerateVideo(cfg GenConfig) *Clip { return video.Generate(cfg) }

// GenreConfig returns the generation preset for one evaluation genre.
func GenreConfig(g Genre, w, h int, seed int64) GenConfig { return video.GenreConfig(g, w, h, seed) }

// Codec substrate.
type (
	// EncoderConfig controls the H.264-style encoder (QP = CRF knob).
	EncoderConfig = codec.EncoderConfig
	// Stream is a coded video sequence.
	Stream = codec.Stream
	// Decoder decodes a Stream, optionally enhancing I frames in the DPB.
	Decoder = codec.Decoder
	// FrameEnhancer is the decoder's I-frame enhancement hook.
	FrameEnhancer = codec.FrameEnhancer
)

// EncodeVideo compresses frames with the built-in codec. forceI marks
// frames that must be coded as I frames (nil for automatic GOPs).
func EncodeVideo(frames []*YUV, forceI []bool, fps int, cfg EncoderConfig) (*Stream, error) {
	return codec.Encode(frames, forceI, fps, cfg)
}

// SR models.
type (
	// EDSRConfig selects an EDSR architecture (n_f × n_RB, scale).
	EDSRConfig = edsr.Config
	// EDSRModel is a trainable/inferable EDSR instance.
	EDSRModel = edsr.Model
	// TrainOptions controls EDSR training.
	TrainOptions = edsr.TrainOptions
	// Pair is one (low, high) training example.
	Pair = edsr.Pair
	// VAEConfig sizes the feature-extraction VAE.
	VAEConfig = vae.Config
)

// Paper model configurations (§4 and Table 1).
var (
	// ConfigDCSR1 is dcSR-1: 4 ResBlocks × 16 filters.
	ConfigDCSR1 = edsr.ConfigDCSR1
	// ConfigDCSR2 is dcSR-2: 12 ResBlocks × 16 filters.
	ConfigDCSR2 = edsr.ConfigDCSR2
	// ConfigDCSR3 is dcSR-3: 16 ResBlocks × 16 filters.
	ConfigDCSR3 = edsr.ConfigDCSR3
	// ConfigBig is the NAS/NEMO one-model-per-video configuration.
	ConfigBig = edsr.ConfigBig
)

// NewEDSR builds an EDSR model with deterministic initialization.
func NewEDSR(cfg EDSRConfig, seed int64) (*EDSRModel, error) { return edsr.New(cfg, seed) }

// Baselines.
type (
	// BaselineMethod selects NAS, NEMO or LOW.
	BaselineMethod = baseline.Method
	// BaselineConfig parameterizes baseline preparation.
	BaselineConfig = baseline.Config
	// BaselinePrepared is a trained baseline for one video.
	BaselinePrepared = baseline.Prepared
)

// The comparison methods of the paper's evaluation.
const (
	MethodNAS  = baseline.NAS
	MethodNEMO = baseline.NEMO
	MethodLow  = baseline.Low
)

// PrepareBaseline trains a NAS/NEMO baseline over the same low-quality
// stream dcSR uses, for a like-for-like comparison.
func PrepareBaseline(m BaselineMethod, frames []*YUV, st *Stream, cfg BaselineConfig) (*BaselinePrepared, error) {
	return baseline.Prepare(m, frames, st, cfg)
}

// Quality metrics.

// PSNR returns peak signal-to-noise ratio (dB) between RGB frames.
func PSNR(a, b *RGB) float64 { return quality.PSNR(a, b) }

// SSIM returns the structural similarity index between RGB frames.
func SSIM(a, b *RGB) float64 { return quality.SSIM(a, b) }

// PSNRYUV returns luma PSNR between YUV frames.
func PSNRYUV(a, b *YUV) float64 { return quality.PSNRYUV(a, b) }

// SSIMYUV returns luma SSIM between YUV frames.
func SSIMYUV(a, b *YUV) float64 { return quality.SSIMYUV(a, b) }

// Device modelling (paper Figs 1, 8, 12).
type (
	// DeviceProfile is a calibrated client device model.
	DeviceProfile = device.Profile
	// Resolution is a named frame size (720p/1080p/4K).
	Resolution = device.Resolution
	// PlaybackSpec describes one playback configuration to evaluate.
	PlaybackSpec = device.PlaybackSpec
)

// Calibrated devices and standard resolutions.
var (
	DeviceJetsonNX = device.JetsonNX
	DeviceLaptop   = device.Laptop
	DeviceDesktop  = device.Desktop
	Res720p        = device.Res720p
	Res1080p       = device.Res1080p
	Res4K          = device.Res4K
)

// Splitting, clustering, streaming.
type (
	// SplitConfig tunes shot-based scene-cut detection.
	SplitConfig = splitter.Config
	// Segment is one variable-length shot segment.
	Segment = splitter.Segment
	// Manifest maps segments to models with byte-accurate sizes.
	Manifest = stream.Manifest
	// Session is the client playback engine and its accounting record.
	Session = stream.Session
	// SessionOptions configures a Session (SR, int8, cache budget, Obs).
	SessionOptions = stream.Options
)

// SplitVideo partitions frames into variable-length shot segments.
func SplitVideo(frames []*YUV, cfg SplitConfig) []Segment { return splitter.Split(frames, cfg) }

// DefaultSessionOptions returns the default session: enhancement on, int8
// wherever the manifest arms it, an unbounded model cache.
func DefaultSessionOptions() SessionOptions { return stream.DefaultOptions() }

// Open starts a playback session over a prepared stream, its own origin.
func Open(p *Prepared, o SessionOptions) (*Session, error) {
	return stream.Open(p.Manifest, p.MicroConfig, p, o)
}

// NewSession starts a manifest-only download session whose model cache
// holds at most budget bytes of payload (budget < 0 → unbounded, the
// paper's Algorithm 1; 0 → caching disabled; > 0 → LRU eviction past the
// budget).
func NewSession(m *Manifest, budget int64) (*Session, error) { return stream.NewSession(m, budget) }

// Observability. An Obs bundle threads metrics, stage tracing and
// logging through ServerConfig.Obs, SessionOptions.Obs and the transport; all
// handles are nil-safe, so the zero value (nil) disables everything at
// no cost. The metric names are a stable surface — see the obs package
// doc and the Observability sections of README.md / DESIGN.md.
type (
	// Obs bundles a metrics registry, a span tracer and a logger.
	Obs = obs.Obs
	// Tracer records bounded trees of pipeline stage spans.
	Tracer = obs.Tracer
	// Span is one timed stage; children nest concurrently-safe.
	Span = obs.Span
	// Logger is a leveled logfmt-style structured logger.
	Logger = obs.Logger
	// LogLevel orders Debug < Info < Warn < Error.
	LogLevel = obs.Level
)

// Log levels for NewLogger.
const (
	LevelDebug = obs.LevelDebug
	LevelInfo  = obs.LevelInfo
	LevelWarn  = obs.LevelWarn
	LevelError = obs.LevelError
)

// NewObs returns a live observability bundle (metrics + tracer, no
// logger). Assign a Logger to its Log field to enable logging.
func NewObs() *Obs { return obs.New() }

// NewLogger returns a structured logger writing lines at or above min
// to w. A nil *Logger is a valid no-op logger.
func NewLogger(w io.Writer, min LogLevel) *Logger { return obs.NewLogger(w, min) }
