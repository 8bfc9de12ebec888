package dcsr

import (
	"io"

	"dcsr/internal/core"
	"dcsr/internal/faultnet"
	"dcsr/internal/transport"
)

// This file exposes the delivery-path extensions: streaming dcSR
// artifacts over real connections (the paper's SR-FFMPEG + streaming
// platform analog), fault injection, quantized model downloads, and
// artifact persistence.

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

// Artifact persistence (what cmd/dcsr-prepare writes and cmd/dcsr-play
// and cmd/dcsr-serve read): one root JSON over a content-addressed object
// store, the same directory a ServerConfig.CheckpointDir run builds.

// SaveArtifact writes a prepared stream, manifest and models to dir.
func SaveArtifact(p *Prepared, dir string) error { return p.Save(dir) }

// LoadArtifact opens a complete artifact: one SaveArtifact wrote, or the
// CheckpointDir of a finished Prepare. Every payload is hash-checked.
func LoadArtifact(dir string) (*Prepared, error) { return core.Load(dir) }
