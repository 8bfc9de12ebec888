package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// Client fetches a dcSR stream over a connection with one request
// outstanding at a time. It is not safe for concurrent use: exactly one
// goroutine may drive a Client — open one client per goroutine, or share
// a MuxClient. (The Server side is concurrent; the single-goroutine
// contract is per client connection.)
//
// The zero-configured client fails on the first I/O error, like the
// original implementation. Set Retry and Redial to survive flaky links:
// failed exchanges are retried with exponential backoff on a freshly
// dialed connection, per-request deadlines bound slow responses, and
// Play degrades gracefully when a micro-model fetch ultimately fails
// (the affected segments play unenhanced instead of aborting playback).
//
// Every method that touches the network takes a context. A Client is a
// stream.Fetcher — the sequential wire backend of the playback engine —
// and PlayCtx is that engine over it.
type Client struct {
	// retrier carries the recovery counters (Retries, Timeouts,
	// Reconnects, Sheds, StallTime — see RecoveryStats) and drives every
	// request through Retry.
	retrier

	conn io.ReadWriter
	// broken marks the connection desynchronized after an I/O failure:
	// a response may still be in flight, so the next exchange must
	// reconnect before writing.
	broken bool

	// BytesDown counts payload plus framing bytes received.
	BytesDown int
	// BytesUp counts request bytes sent.
	BytesUp int

	// Retry configures per-request deadlines and retry/backoff; the
	// zero value reproduces the original fail-fast behaviour.
	Retry RetryPolicy
	// Redial, when set, re-establishes the connection after an I/O
	// failure (the previous connection is closed when it implements
	// io.Closer). Without it, transport-level failures are fatal.
	Redial func() (io.ReadWriter, error)

	// CacheBudget bounds Play's micro-model cache in bytes of serialized
	// weights: past the budget the least-recently-used model is evicted
	// and its next reference re-downloads it (PlayStats.Evictions). 0 or
	// negative (the default) leaves the cache unbounded — the paper's
	// Algorithm 1 behaviour.
	CacheBudget int64
	// NoInt8 keeps Play on the float32 enhancement path even for models
	// whose manifest entry advertises int8 calibration (the precision
	// ablation). The default serves every int8-gated model on the
	// quantized kernels, armed with the origin's activation scales from
	// the manifest (ModelInfo.ActScales) so client and origin produce
	// bit-identical pixels.
	NoInt8 bool

	// Log receives request failures and per-segment debug lines; nil
	// (the default) discards them — previously client errors were
	// silent.
	Log *obs.Logger
	// Obs records transport_client_requests_total,
	// transport_client_bytes_up/down_total, the fault-tolerance
	// counters transport_client_{retries,timeouts,reconnects}_total,
	// the admission-shed counter transport_client_shed_total, the
	// model-stream counters modelstream_backbone_fetch_total,
	// modelstream_delta_bytes_total and modelstream_fallback_total
	// (manifests advertising a backbone only), and per-exchange
	// round-trip latency as both the lifetime
	// transport_client_rtt_seconds histogram and its rolling-window
	// twin transport_client_rtt_window_seconds; nil disables metrics.
	Obs *obs.Obs

	// Video routes requests at one of a multi-video server's hosted
	// streams (0, the default, is the first video registered). Set it via
	// SelectVideoCtx, or directly from a WireDirectory entry's ID.
	Video uint32

	nextID uint32 // request ID counter
}

// NewClient wraps an established connection (TCP, net.Pipe, throttled,
// fault-injected…).
func NewClient(conn io.ReadWriter) *Client { return &Client{conn: conn} }

// Dial connects to a Server over TCP.
func Dial(addr string) (*Client, net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return NewClient(conn), conn, nil
}

// closeConn closes rw when it can be closed (connections handed to the
// clients are plain io.ReadWriters).
func closeConn(rw io.ReadWriter) error {
	if cl, ok := rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// reconnect replaces a broken connection through Redial, closing the old
// one so the peer's stale handler can unwind.
func (c *Client) reconnect() error {
	if c.Redial == nil {
		return errors.New("transport: connection broken and no Redial configured")
	}
	//lint:allow errcheck the conn is already known broken; closing is best-effort unwinding and the caller is about to redial
	closeConn(c.conn)
	conn, err := c.Redial()
	if err != nil {
		c.Log.Error("transport: redial failed", "err", err)
		return fmt.Errorf("transport: redial: %w", err)
	}
	c.conn = conn
	c.broken = false
	c.Reconnects++
	c.Obs.Counter("transport_client_reconnects_total").Inc()
	c.Log.Info("transport: reconnected", "reconnects", c.Reconnects)
	return nil
}

// exchange is the sequential client's exchanger: one request/response on
// the current connection (redialed first if the last exchange broke it).
// Transport-level failures mark the connection broken; protocol
// rejections come back as *statusError with the connection still usable.
func (c *Client) exchange(ctx context.Context, rq request, attempt int, asp *obs.Span) ([]byte, error) {
	if c.broken {
		if err := c.reconnect(); err != nil {
			return nil, err
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		if d, ok := c.conn.(readDeadliner); ok && d.SetReadDeadline(dl) == nil {
			//lint:allow errcheck clearing a deadline can only fail on a conn that is already broken, which the exchange itself reports
			defer d.SetReadDeadline(time.Time{})
		}
	}
	var t0 time.Time
	if c.Obs != nil {
		t0 = time.Now()
	}
	c.nextID++
	req := rq.frame(c.nextID, attempt, asp)
	if err := writeRequest(c.conn, req); err != nil {
		c.broken = true
		c.Log.Error("transport: client write failed", "op", opName(rq.op), "arg", rq.arg, "err", err)
		return nil, err
	}
	c.BytesUp += reqFrameBytes
	c.Obs.Counter("transport_client_requests_total").Inc()
	c.Obs.Counter("transport_client_bytes_up_total").Add(reqFrameBytes)
	gotID, status, payload, err := readResponse(c.conn)
	if err == nil && gotID != req.ID {
		// Exactly one request is outstanding, so a mismatched ID means the
		// stream is desynchronized.
		err = fmt.Errorf("transport: response for request %d, expected %d", gotID, req.ID)
	}
	if err != nil {
		c.broken = true
		c.Log.Error("transport: client read failed", "op", opName(rq.op), "arg", rq.arg, "err", err)
		return nil, err
	}
	respBytes := respFrameBytes + len(payload)
	c.BytesDown += respBytes
	return settle(c.Obs, c.Log, rq, t0, respBytes, status, payload)
}

// settle is the tail both exchangers share once a response has arrived
// intact: record its size and round-trip time, then turn its status into
// the payload or the *statusError the retry loop classifies.
func settle(o *obs.Obs, log *obs.Logger, rq request, t0 time.Time, respBytes int, status byte, payload []byte) ([]byte, error) {
	o.Counter("transport_client_bytes_down_total").Add(int64(respBytes))
	if o != nil {
		rtt := time.Since(t0).Seconds()
		o.Histogram("transport_client_rtt_seconds").Observe(rtt)
		o.WindowedHistogram("transport_client_rtt_window_seconds").Observe(rtt)
	}
	if status == StatusOK {
		return payload, nil
	}
	se := &statusError{op: rq.op, arg: rq.arg, status: status}
	if status == StatusRetryAfter {
		se.hint = parseRetryAfter(payload)
	}
	log.Warn("transport: request failed", "op", opName(rq.op), "arg", rq.arg, "status", status)
	return nil, se
}

// roundTrip drives one request through the shared retry state machine
// (retrier.do).
func (c *Client) roundTrip(ctx context.Context, op byte, arg uint32) ([]byte, error) {
	return c.retrier.do(ctx, c, request{op, arg, c.Video}, c.Retry, c.Obs, c.Log)
}

// kindOp maps the engine's artifact kinds onto wire opcodes.
var kindOp = [...]byte{
	stream.KindSegment:    OpSegment,
	stream.KindModel:      OpModel,
	stream.KindBackbone:   OpBackbone,
	stream.KindModelDelta: OpModelDelta,
}

// Fetch implements stream.Fetcher over the connection.
func (c *Client) Fetch(ctx context.Context, kind stream.Kind, arg int) ([]byte, error) {
	return c.roundTrip(ctx, kindOp[kind], uint32(arg))
}

// ManifestCtx fetches and parses the manifest of the selected video.
func (c *Client) ManifestCtx(ctx context.Context) (*WireManifest, error) {
	data, err := c.roundTrip(ctx, OpManifest, 0)
	if err != nil {
		return nil, err
	}
	return DecodeWireManifest(data)
}

// VideosCtx fetches the server's directory of hosted videos.
func (c *Client) VideosCtx(ctx context.Context) (*WireDirectory, error) {
	data, err := c.roundTrip(ctx, OpVideos, 0)
	if err != nil {
		return nil, err
	}
	return DecodeWireDirectory(data)
}

// SelectVideoCtx routes all subsequent requests at the hosted video with
// the given hex content digest, as listed in the OpVideos directory. The
// next ManifestCtx (and therefore PlayCtx) then fetches that video.
func (c *Client) SelectVideoCtx(ctx context.Context, digest string) error {
	dir, err := c.VideosCtx(ctx)
	if err != nil {
		return err
	}
	for _, v := range dir.Videos {
		if v.Digest == digest {
			c.Video = v.ID
			c.Log.Debug("transport: video selected", "id", v.ID, "digest", digest)
			return nil
		}
	}
	return fmt.Errorf("transport: video %s not hosted", digest)
}

// SegmentCtx fetches segment i as a decodable sub-stream.
func (c *Client) SegmentCtx(ctx context.Context, i int) (*codec.Stream, error) {
	data, err := c.roundTrip(ctx, OpSegment, uint32(i))
	if err != nil {
		return nil, err
	}
	return codec.Unmarshal(data)
}

// ModelCtx fetches micro model label complete (OpModel) and deserializes
// it into a ready model of the given configuration, returning the model
// and the bytes downloaded.
func (c *Client) ModelCtx(ctx context.Context, label int, cfg edsr.Config) (*edsr.Model, int, error) {
	data, err := c.roundTrip(ctx, OpModel, uint32(label))
	if err != nil {
		return nil, 0, err
	}
	m, err := stream.LoadModel(cfg, data)
	if err != nil {
		return nil, 0, fmt.Errorf("transport: model %d: %w", label, err)
	}
	return m, len(data), nil
}

// PlayStats summarizes a streamed playback session: the finished
// stream.Session's accounting (VideoBytes, ModelBytes and its
// BackboneBytes/DeltaModelBytes/FullModelBytes breakdown, CacheHits,
// CacheMisses, DegradedSegments, Evictions, CacheBytes — see
// stream.Accounting) and the decoder's statistics (Enhanced, and
// EnhancedInt8 for the subset served on the int8 kernels).
type PlayStats struct {
	stream.Accounting
	codec.DecodeStats
	Segments       int
	ModelDownloads int
}

// PlayCtx streams the whole video through the playback engine
// (stream.Session) with this client as its Fetcher: per segment, fetch
// the sub-stream, fetch its micro model on cache miss (paper Algorithm
// 1), decode with the model patched into the decoder's I-frame hook.
// With enhance=false it plays the raw low-quality stream. ctx aborts
// between requests and interrupts retry backoff immediately.
//
// Failure semantics: a segment (or manifest) fetch that fails after the
// retry budget aborts the session — there is nothing to show without
// video bytes. A micro-model fetch that fails after the retry budget
// degrades instead of aborting: the segment plays unenhanced, the label
// is marked degraded (stats.DegradedSegments, degraded_segments_total),
// and the next segment referencing the label retries the download. A
// manifest that fails validation — including a model configuration that
// does not match the declared model sizes — is an error before anything
// is fetched or built.
//
// The session runs under a client_play root span: the manifest's attempt
// spans hang off the root, segment and model fetches off one
// segment_fetch child per segment.
func (c *Client) PlayCtx(ctx context.Context, enhance bool) ([]*video.YUV, *PlayStats, error) {
	root := c.Obs.Start("client_play")
	defer root.End()
	ctx = obs.WithSpan(ctx, root)
	wm, err := c.ManifestCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	budget := c.CacheBudget
	if budget <= 0 {
		budget = -1 // the zero value is unbounded here; 0 disables caching in the engine
	}
	sess, err := stream.Open(wm.Manifest(), wm.MicroConfig, c, stream.Options{
		Enhance: enhance, Int8: !c.NoInt8, CacheBudget: budget,
		Propagation: codec.PropagateDelta, Obs: c.Obs, Log: c.Log,
	})
	if err != nil {
		return nil, nil, err
	}
	sess.Trace = root
	frames, dec, err := sess.Play(ctx)
	if err != nil {
		return nil, nil, err
	}
	return frames, &PlayStats{Accounting: sess.Accounting, DecodeStats: dec,
		Segments: len(sess.Events), ModelDownloads: sess.Downloads}, nil
}
