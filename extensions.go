package dcsr

import (
	"io"

	"dcsr/internal/abr"
	"dcsr/internal/core"
	"dcsr/internal/faultnet"
	"dcsr/internal/lint"
	"dcsr/internal/transport"
)

// This file exposes the delivery-path and ABR extensions: streaming dcSR
// artifacts over real connections (the paper's SR-FFMPEG + streaming
// platform analog), SR-aware adaptive bitrate (paper §4), quantized model
// downloads, and artifact persistence.

// Network transport.
type (
	// StreamServer serves a prepared stream to concurrent clients.
	StreamServer = transport.Server
	// StreamClient fetches manifest/segments/models over one pipelined
	// connection and plays them back; it is safe for concurrent use.
	StreamClient = transport.Client
	// ThrottledConn rate-limits reads to emulate a constrained downlink.
	ThrottledConn = transport.ThrottledConn
)

// NewStreamServer packages a prepared stream for network serving.
func NewStreamServer(p *Prepared) (*StreamServer, error) { return transport.NewServer(p) }

// NewStreamClient starts a client on an established connection.
func NewStreamClient(conn io.ReadWriter) *StreamClient { return transport.NewClient(conn) }

// NewThrottledConn limits reads on conn to bytesPerSecond.
func NewThrottledConn(conn io.ReadWriter, bytesPerSecond float64) *ThrottledConn {
	return transport.NewThrottledConn(conn, bytesPerSecond)
}

// Fault tolerance (docs/OPERATIONS.md). Configure StreamClient.Retry
// with a RetryPolicy (and StreamClient.Redial to enable reconnects);
// failed model fetches degrade playback gracefully instead of killing
// the session.
type (
	// RetryPolicy is the client's retry/timeout/backoff configuration.
	RetryPolicy = transport.RetryPolicy
	// FaultInjector injects deterministic network faults for testing.
	FaultInjector = faultnet.Injector
	// FaultConfig parameterizes a FaultInjector (rates, script, hook).
	FaultConfig = faultnet.Config
	// FaultKind enumerates the injectable fault classes.
	FaultKind = faultnet.Kind
)

// Injectable fault classes.
const (
	FaultNone     = faultnet.KindNone
	FaultDrop     = faultnet.KindDrop
	FaultDelay    = faultnet.KindDelay
	FaultTruncate = faultnet.KindTruncate
	FaultError    = faultnet.KindError
)

// NewFaultInjector returns an injector whose Wrap method applies the
// configured fault schedule to any connection.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultnet.New(cfg) }

// IsNotFound reports whether a StreamClient error is an origin-side
// "not found" (never retried; see docs/OPERATIONS.md).
func IsNotFound(err error) bool { return transport.IsNotFound(err) }

// Adaptive bitrate (paper §4: trading network for compute capacity).
type (
	// Ladder is a multi-quality encode of one video.
	Ladder = abr.Ladder
	// BandwidthTrace is a piecewise-constant link profile.
	BandwidthTrace = abr.Trace
	// ABRPolicy selects a ladder level per segment.
	ABRPolicy = abr.Policy
	// ABRContext is the per-decision state a policy sees.
	ABRContext = abr.Context
	// SimOptions configures a streaming simulation.
	SimOptions = abr.SimOptions
	// SimResult is a simulated session outcome (QoE, rebuffering, bytes).
	SimResult = abr.Result
)

// ABR policies.
type (
	// PolicyRateBased is the classic throughput rule.
	PolicyRateBased = abr.RateBased
	// PolicyBufferBased maps buffer occupancy to levels (BOLA-shaped).
	PolicyBufferBased = abr.BufferBased
	// PolicySRAware scores levels by post-enhancement quality and counts
	// micro-model bytes — the dcSR-integrated ABR of paper §4.
	PolicySRAware = abr.SRAware
)

// BuildLadder encodes the video at each QP (strictly decreasing) and
// measures per-segment bytes and PSNR.
func BuildLadder(frames []*YUV, fps int, segs []Segment, qps []int) (*Ladder, error) {
	return abr.BuildLadder(frames, fps, segs, qps)
}

// ConstantTrace is a fixed-rate link of the given duration.
func ConstantTrace(bytesPerSecond, duration float64) *BandwidthTrace {
	return abr.ConstantTrace(bytesPerSecond, duration)
}

// MarkovTrace is a two-state good/bad wireless link model.
func MarkovTrace(goodBps, badBps, pSwitch, duration float64, seed int64) *BandwidthTrace {
	return abr.MarkovTrace(goodBps, badBps, pSwitch, duration, seed)
}

// SimulateABR streams the ladder through the trace under the policy.
func SimulateABR(l *Ladder, tr *BandwidthTrace, p ABRPolicy, opts SimOptions) (*SimResult, error) {
	return abr.Simulate(l, tr, p, opts)
}

// Artifact persistence (what cmd/dcsr-prepare writes and cmd/dcsr-play
// and cmd/dcsr-serve read): one root JSON over a content-addressed object
// store, the same directory a ServerConfig.CheckpointDir run builds.

// SaveArtifact writes a prepared stream, manifest and models to dir.
func SaveArtifact(p *Prepared, dir string) error { return p.Save(dir) }

// LoadArtifact opens a complete artifact: one SaveArtifact wrote, or the
// CheckpointDir of a finished Prepare. Every payload is hash-checked.
func LoadArtifact(dir string) (*Prepared, error) { return core.Load(dir) }

// Static analysis (docs/LINTING.md). The same pass gates `go test`
// through TestLintRepo and `make lint` through cmd/dcsr-lint.

// Diagnostic is one static-analysis finding: file/line/column position,
// the reporting check's name, and the message.
type Diagnostic = lint.Diagnostic

// Lint runs the repository's static-analysis pass — the nine analyzers
// docs/LINTING.md catalogues (metricnames, nodeterm, errcheck, goleak,
// ctxcheck, lockorder, atomicfield, errcmp, timerleak) with
// //lint:allow suppression applied — over the Go module
// containing dir and returns the surviving diagnostics sorted by
// position. An empty result means the tree upholds every machine-checked
// invariant.
func Lint(dir string) ([]Diagnostic, error) { return lint.Lint(dir) }
