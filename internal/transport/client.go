package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// Client fetches dcSR artifacts over one connection at a time, pipelined:
// requests are written as they arrive, tagged with unique IDs, and a
// reader goroutine matches each response back to its request by ID. It is
// safe for concurrent use; N sessions share one connection instead of
// opening N. Video(id) binds it to a hosted video as a stream.Fetcher.
//
// Every request runs through one retry loop (Client.do, see RetryPolicy).
// A transport error retires the connection. RetryPolicy.Timeout is a
// context deadline on every exchange, and when it expires the connection
// is kept if any response arrived on it while the request waited — the
// late reply is then discarded by ID — and retired as stalled otherwise.
// The next request after a retirement redials through Redial; a client
// without Redial fails fast instead, with an error naming the missing
// Redial. A cancelled context abandons its request and keeps the
// connection.
type Client struct {
	// ClientStats holds the counters; Stats snapshots them. Read the
	// fields directly only while no request is in flight.
	ClientStats

	// Retry configures per-request timeouts and retry/backoff; the zero
	// value fails on the first error.
	Retry RetryPolicy
	// Redial, when set, dials a fresh connection after the last one was
	// retired (the retired one is closed when it implements io.Closer).
	// Without it, a lost or stalled connection is fatal.
	Redial func() (io.ReadWriter, error)
	// Obs records transport_client_requests_total,
	// transport_client_bytes_up/down_total, the fault-tolerance counters
	// transport_client_{retries,timeouts,reconnects}_total, the
	// admission-shed counter transport_client_shed_total, and per-exchange
	// round-trip latency in transport_client_rtt_seconds; its Log receives
	// request failures and reconnect lines. nil disables all of it.
	Obs *obs.Obs

	statsMu sync.Mutex // guards ClientStats and rng
	rng     *rand.Rand
	sleep   func(time.Duration) // test hook; a real interruptible sleep when nil

	// dialMu serializes redials, so a burst of requests that watched one
	// connection die produces one fresh connection, not one per request.
	// Lock order: dialMu before mu and before statsMu, never the reverse.
	dialMu sync.Mutex
	mu     sync.Mutex // guards cur and closed
	cur    *link
	closed bool
	nextID atomic.Uint32

	wm *WireManifest // DialMux's probe; read-only after

	// backbones holds each video's shared *stream.Backbone for ModelData,
	// keyed by video ID: N concurrent sessions of one video pay for one
	// backbone download and one deserialization, and videos never wait
	// on each other.
	backbones sync.Map
}

// ClientStats is a snapshot of a Client's counters. Retries, Timeouts,
// Reconnects and Sheds mirror the obs counters
// transport_client_{retries,timeouts,reconnects,shed}_total for callers
// without a metrics registry.
type ClientStats struct {
	Retries    int
	Timeouts   int
	Reconnects int
	// Sheds counts StatusRetryAfter rejections received from the server's
	// admission layer. Each one backed off by at least the server's hint
	// before retrying (see RetryPolicy.ShedRetries).
	Sheds int
	// StallTime accumulates backoff sleeps — delivery time lost to
	// faults, the "stall" axis of the fault-injection experiment.
	StallTime time.Duration
	// BytesUp counts request bytes sent; BytesDown counts payload plus
	// framing bytes received.
	BytesUp, BytesDown int64
}

// MuxClient is Client; the name is kept for bench/adapter.go only.
type MuxClient = Client

// NewClient starts a client on an established connection (TCP,
// net.Pipe, throttled, fault-injected…) and its reader goroutine. Set
// Redial to survive losing it.
func NewClient(rw io.ReadWriter) *Client { return &Client{cur: newLink(rw)} }

// DialMux is NewClient over dial() with Redial = dial, plus a fetch of
// the default video's manifest, available via Manifest.
func DialMux(dial func() (io.ReadWriter, error)) (*Client, error) {
	rw, err := dial()
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	c := NewClient(rw)
	c.Redial = dial
	if c.wm, err = c.ManifestCtx(context.Background()); err != nil {
		//lint:allow errcheck the manifest fetch already failed; closing the unusable client is best-effort cleanup
		c.Close()
		return nil, fmt.Errorf("transport: manifest probe: %w", err)
	}
	return c, nil
}

// Manifest returns the default video's manifest fetched by DialMux (nil
// for a client from NewClient).
func (c *Client) Manifest() *WireManifest { return c.wm }

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.ClientStats
}

// Close closes the current connection and, when it is an io.Closer,
// returns once its reader goroutine has exited; in-flight requests fail,
// and later ones fail without redialing.
func (c *Client) Close() error {
	c.mu.Lock()
	l := c.cur
	c.cur, c.closed = nil, true
	c.mu.Unlock()
	if l == nil {
		return nil
	}
	cl, ok := l.rw.(io.Closer)
	if !ok {
		return nil
	}
	err := cl.Close()
	<-l.done
	return err
}

// closeConn closes rw when it can be closed (connections handed to the
// client are plain io.ReadWriters).
func closeConn(rw io.ReadWriter) error {
	if cl, ok := rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// link is one live connection: the wire, a write lock serializing request
// frames, and the pending table its reader goroutine resolves responses
// against. A link is abandoned, never repaired, once it fails or stalls.
type link struct {
	rw   io.ReadWriter
	wmu  sync.Mutex
	wbuf reqFrame   // guarded by wmu
	rhdr respHeader // the reader goroutine's

	pmu     sync.Mutex
	pending map[uint32]chan result
	// delivered counts responses read, matched or not: the liveness the
	// timeout rule reads.
	delivered uint64
	dead      bool
	done      chan struct{} // closed when the reader exits
}

type result struct {
	status  byte
	payload []byte
	err     error
}

func newLink(rw io.ReadWriter) *link {
	l := &link{rw: rw, pending: make(map[uint32]chan result), done: make(chan struct{})}
	go l.read()
	return l
}

// read is the reader goroutine: it hands each response to its waiter
// until the connection fails, then fails every waiter.
func (l *link) read() {
	defer close(l.done)
	for {
		id, status, payload, err := l.rhdr.read(l.rw)
		l.pmu.Lock()
		if err != nil {
			l.dead = true
			for id, ch := range l.pending {
				delete(l.pending, id)
				ch <- result{err: err} // buffered, never blocks
			}
			l.pmu.Unlock()
			return
		}
		l.delivered++
		ch, ok := l.pending[id]
		delete(l.pending, id)
		l.pmu.Unlock()
		if ok {
			ch <- result{status: status, payload: payload} // buffered, never blocks
		}
	}
}

// register adds a pending entry and returns the delivery count so far; it
// fails once the reader has exited, so no request waits on a connection
// nobody reads.
func (l *link) register(id uint32, ch chan result) (uint64, error) {
	l.pmu.Lock()
	defer l.pmu.Unlock()
	if l.dead {
		return 0, errors.New("transport: connection is down")
	}
	l.pending[id] = ch
	return l.delivered, nil
}

// abandon drops a pending entry, so a late response for it is discarded,
// and reports whether any response arrived since the delivery count seen.
func (l *link) abandon(id uint32, seen uint64) (live bool) {
	l.pmu.Lock()
	defer l.pmu.Unlock()
	delete(l.pending, id)
	return l.delivered != seen
}

var (
	errClosed   = errors.New("transport: client is closed")
	errNoRedial = errors.New("transport: connection lost and no Redial configured")
)

// link returns the live connection, redialing when the last one was
// retired. Concurrent callers pile onto the one redial behind dialMu.
func (c *Client) link() (*link, error) {
	if l, err := c.current(); l != nil || err != nil {
		return l, err
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Another request may have finished the redial while this one queued.
	if l, err := c.current(); l != nil || err != nil {
		return l, err
	}
	if c.Redial == nil {
		return nil, errNoRedial
	}
	rw, err := c.Redial()
	if err != nil {
		c.Obs.Logger().Error("transport: redial failed", "err", err)
		return nil, fmt.Errorf("transport: redial: %w", err)
	}
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.cur = newLink(rw)
	}
	l := c.cur
	c.mu.Unlock()
	if closed { // Close won the race with this redial
		//lint:allow errcheck the fresh conn was never used; the caller gets the closed-client error
		closeConn(rw)
		return nil, errClosed
	}
	c.statsMu.Lock()
	c.Reconnects++
	c.statsMu.Unlock()
	c.Obs.Counter("transport_client_reconnects_total").Inc()
	c.Obs.Logger().Info("transport: reconnected")
	return l, nil
}

// current returns the live connection, nil once it was retired, or the
// error of a closed client.
func (c *Client) current() (*link, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClosed
	}
	return c.cur, nil
}

// retire abandons l after err so the next request redials; of the
// requests that watched it fail, the first closes it. Without Redial
// there is no way back, and the returned error says so.
func (c *Client) retire(l *link, err error) error {
	c.mu.Lock()
	first := c.cur == l
	if first {
		c.cur = nil
	}
	c.mu.Unlock()
	if first {
		//lint:allow errcheck the conn already failed or stalled; closing is best-effort unwinding before the redial
		closeConn(l.rw)
	}
	if c.Redial == nil {
		return fmt.Errorf("%w: %w", errNoRedial, err)
	}
	return err
}

// exchange is one pipelined request/response on the live connection; ctx
// carries the request's timeout. A transport error retires the
// connection; a timeout retires it only when it stalled (see Client). An
// intact non-OK response comes back as *statusError with the connection
// still in use.
func (c *Client) exchange(ctx context.Context, rq request, attempt int, asp *obs.Span) ([]byte, error) {
	l, err := c.link()
	if err != nil {
		return nil, err
	}
	id := c.nextID.Add(1)
	ch := make(chan result, 1)
	seen, err := l.register(id, ch)
	if err == nil {
		l.wmu.Lock()
		err = l.wbuf.write(l.rw, rq.frame(id, attempt, asp))
		l.wmu.Unlock()
	}
	if err != nil {
		l.abandon(id, seen)
		c.Obs.Logger().Error("transport: client write failed", "op", opName(rq.op), "arg", rq.arg, "err", err)
		return nil, c.retire(l, err)
	}
	c.count(reqFrameBytes, 0)
	c.Obs.Counter("transport_client_requests_total").Inc()
	c.Obs.Counter("transport_client_bytes_up_total").Add(reqFrameBytes)
	var t0 time.Time
	if c.Obs != nil {
		t0 = time.Now()
	}
	select {
	case res := <-ch:
		if res.err != nil {
			c.Obs.Logger().Error("transport: client read failed", "op", opName(rq.op), "arg", rq.arg, "err", res.err)
			return nil, c.retire(l, res.err)
		}
		return c.settle(rq, t0, res)
	case <-ctx.Done():
		if !l.abandon(id, seen) && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, c.retire(l, ctx.Err())
		}
		return nil, ctx.Err()
	}
}

// count adds to the byte counters.
func (c *Client) count(up, down int) {
	c.statsMu.Lock()
	c.BytesUp += int64(up)
	c.BytesDown += int64(down)
	c.statsMu.Unlock()
}

// settle is the tail of an exchange whose response arrived intact: record
// its size and round-trip time, then turn its status into the payload or
// the *statusError the retry loop classifies.
func (c *Client) settle(rq request, t0 time.Time, res result) ([]byte, error) {
	n := respFrameBytes + len(res.payload)
	c.count(0, n)
	c.Obs.Counter("transport_client_bytes_down_total").Add(int64(n))
	if c.Obs != nil {
		c.Obs.Histogram("transport_client_rtt_seconds").Observe(time.Since(t0).Seconds())
	}
	if res.status == StatusOK {
		return res.payload, nil
	}
	se := &statusError{op: rq.op, arg: rq.arg, status: res.status}
	if res.status == StatusRetryAfter {
		se.hint = parseRetryAfter(res.payload)
	}
	c.Obs.Logger().Warn("transport: request failed", "op", opName(rq.op), "arg", rq.arg, "status", res.status)
	return nil, se
}

// Do performs one request against the given video through the retry
// loop. The payload is handed over: the caller owns it and the client
// never reuses its bytes. The typed calls (ModelCtx, SegmentCtx,
// Video.Manifest…) instead recycle theirs once their decoder, which
// copies what it keeps, returns.
func (c *Client) Do(ctx context.Context, op byte, arg, video uint32) ([]byte, error) {
	return c.do(ctx, request{op, arg, video})
}

// kindOp maps the engine's artifact kinds onto wire opcodes.
var kindOp = [...]byte{
	stream.KindSegment:    OpSegment,
	stream.KindModel:      OpModel,
	stream.KindModelDelta: OpModelDelta,
}

// Video is a Client bound to one hosted video: a stream.Fetcher that any
// number of stream.Sessions may play through concurrently, pipelined on
// the client's connection.
type Video struct {
	c  *Client
	ID uint32
}

// Video binds the client to hosted video id; 0 is the server's default.
func (c *Client) Video(id uint32) Video { return Video{c, id} }

// Fetch implements stream.Fetcher. Like Do, it hands the payload over:
// the stream.Assembler keeps a backbone payload and a stream.Session
// what it fetched.
func (v Video) Fetch(ctx context.Context, kind stream.Kind, arg int) ([]byte, error) {
	return v.c.Do(ctx, kindOp[kind], uint32(arg), v.ID)
}

// Manifest fetches and parses the video's manifest. The payload's buffer
// is recycled once DecodeWireManifest, which copies what it keeps,
// returns.
func (v Video) Manifest(ctx context.Context) (*WireManifest, error) {
	data, err := v.c.Do(ctx, OpManifest, 0, v.ID)
	if err != nil {
		return nil, err
	}
	defer recyclePayload(data)
	return DecodeWireManifest(data)
}

// VideoByDigest looks the hex content digest up in the server's OpVideos
// directory and binds the client to that video. It works as a
// connection's first request.
func (c *Client) VideoByDigest(ctx context.Context, digest string) (Video, error) {
	dir, err := c.VideosCtx(ctx)
	if err != nil {
		return Video{}, err
	}
	for _, v := range dir.Videos {
		if v.Digest == digest {
			return c.Video(v.ID), nil
		}
	}
	return Video{}, fmt.Errorf("transport: video %s not hosted", digest)
}

// VideosCtx fetches the server's directory of hosted videos, recycling
// the payload's buffer once it is parsed.
func (c *Client) VideosCtx(ctx context.Context) (*WireDirectory, error) {
	data, err := c.Do(ctx, OpVideos, 0, 0)
	if err != nil {
		return nil, err
	}
	defer recyclePayload(data)
	return DecodeWireDirectory(data)
}

// ManifestCtx fetches and parses the default video's manifest
// (Video.Manifest, which recycles the payload's buffer).
func (c *Client) ManifestCtx(ctx context.Context) (*WireManifest, error) {
	return c.Video(0).Manifest(ctx)
}

// SegmentCtx fetches segment i of the default video as a decodable
// sub-stream. The payload's buffer is recycled once codec.Unmarshal,
// which copies the frames out of it, returns.
func (c *Client) SegmentCtx(ctx context.Context, i int) (*codec.Stream, error) {
	data, err := c.Do(ctx, OpSegment, uint32(i), 0)
	if err != nil {
		return nil, err
	}
	defer recyclePayload(data)
	return codec.Unmarshal(data)
}

// ModelCtx fetches micro model label of the default video complete
// (OpModel) and deserializes it into a model of the given configuration,
// returning the model and the bytes downloaded. The payload's buffer is
// recycled once stream.LoadModel, which decodes the weights into the
// model's own storage, returns.
func (c *Client) ModelCtx(ctx context.Context, label int, cfg edsr.Config) (*edsr.Model, int, error) {
	data, err := c.Do(ctx, OpModel, uint32(label), 0)
	if err != nil {
		return nil, 0, err
	}
	defer recyclePayload(data)
	m, err := stream.LoadModel(cfg, data)
	if err != nil {
		return nil, 0, fmt.Errorf("transport: model %d: %w", label, err)
	}
	return m, len(data), nil
}

// ModelData fetches micro model label of the given video through
// stream.Assembler — the one model assembler, in the model-stream order
// when wm (that video's manifest) advertises a backbone, complete via
// OpModel otherwise or on any assembly failure. The video's backbone is
// fetched, verified and deserialized at most once per client, shared by
// every concurrent session. wm and cfg are validated before anything is
// fetched or built. The returned int is the wire bytes this call
// downloaded (a delta label's first fetch also pays the backbone).
func (c *Client) ModelData(ctx context.Context, video uint32, wm *WireManifest, label int, cfg edsr.Config) (*edsr.Model, int, error) {
	if wm == nil {
		return nil, 0, errors.New("transport: ModelData needs the video's manifest")
	}
	man := wm.Manifest()
	if err := man.ValidateFor(cfg); err != nil {
		return nil, 0, err
	}
	bb, _ := c.backbones.LoadOrStore(video, new(stream.Backbone))
	a := stream.Assembler{Fetcher: c.Video(video), Manifest: man, Config: cfg, Backbone: bb.(*stream.Backbone), Obs: c.Obs}
	model, _, cost, err := a.Model(ctx, label)
	return model, cost.Total(), err
}

// PlayStats summarizes a played session: the finished stream.Session's
// accounting (see stream.Accounting) and the decoder's statistics
// (Enhanced, and EnhancedInt8 for the subset served on the int8 kernels).
type PlayStats struct {
	stream.Accounting
	codec.DecodeStats
	Segments       int
	ModelDownloads int
}

// PlayCtx plays the default video through the playback engine
// (stream.Session) with stream.DefaultOptions and enhancement as asked.
// Callers that need other options or another video open stream.Open over
// c.Video(id) themselves. The session, manifest fetch included, runs under
// a client_play root span; see stream.Session for the failure semantics.
func (c *Client) PlayCtx(ctx context.Context, enhance bool) ([]*video.YUV, *PlayStats, error) {
	root := c.Obs.Start("client_play")
	defer root.End()
	ctx = obs.WithSpan(ctx, root)
	v := c.Video(0)
	wm, err := v.Manifest(ctx)
	if err != nil {
		return nil, nil, err
	}
	opts := stream.DefaultOptions()
	opts.Enhance, opts.Obs = enhance, c.Obs
	sess, err := stream.Open(wm.Manifest(), wm.MicroConfig, v, opts)
	if err != nil {
		return nil, nil, err
	}
	frames, dec, err := sess.Play(ctx)
	if err != nil {
		return nil, nil, err
	}
	return frames, &PlayStats{Accounting: sess.Accounting, DecodeStats: dec,
		Segments: len(sess.Events), ModelDownloads: sess.Downloads}, nil
}
