package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
)

// MuxClient multiplexes many concurrent requests over one connection:
// requests are pipelined (written as they arrive, tagged with unique IDs)
// and responses are matched back by ID, so N goroutines share one TCP
// connection instead of opening N. It is safe for concurrent use — the
// concurrency contract is the whole point.
//
// Failure semantics follow the sequential Client: transport errors mark
// the connection broken, and the next request redials; StatusRetryAfter
// sheds are retried with the server's hint as a backoff floor; other
// non-OK statuses are returned immediately as deterministic rejections.
// A request timeout does NOT break the connection — the late response is
// discarded by ID when it eventually arrives — which is what makes
// per-request deadlines cheap under pipelining.
type MuxClient struct {
	// Retry configures per-request deadlines, retry/backoff and the shed
	// budget, exactly as on Client.
	Retry RetryPolicy
	// Log receives request failures and reconnect lines; nil discards.
	Log *obs.Logger
	// Obs records the transport_client_* metric surface (requests, bytes
	// up/down, rtt + windowed rtt, retries, timeouts, reconnects, shed);
	// nil disables metrics.
	Obs *obs.Obs

	dial func() (io.ReadWriter, error)

	// dialMu serializes reconnects so a burst of concurrent failures
	// produces one fresh connection, not one per waiter.
	dialMu sync.Mutex

	wm *WireManifest // set once by DialMux, then read-only

	mu     sync.Mutex
	cur    *muxConn
	closed bool
	nextID atomic.Uint32

	rt                 retrier
	bytesUp, bytesDown atomic.Int64

	// backbones holds each video's shared *stream.Backbone for ModelData,
	// keyed by video ID: N concurrent sessions of one video pay for one
	// OpBackbone download and one deserialization, and videos never wait
	// on each other.
	backbones sync.Map
}

// muxConn is one live multiplexed connection: the wire, a write lock
// serializing frames, and the pending table the reader goroutine resolves
// responses against. A muxConn is abandoned (never repaired) on the first
// transport error; MuxClient dials a fresh one.
type muxConn struct {
	rw  io.ReadWriter
	wmu sync.Mutex

	pmu     sync.Mutex
	pending map[uint32]chan muxResult
	dead    bool
	done    chan struct{}
}

type muxResult struct {
	status  byte
	payload []byte
	err     error
}

// register adds a pending entry; it fails if the reader has already
// exited, so no request can wait on a connection nobody is reading.
func (mc *muxConn) register(id uint32, ch chan muxResult) error {
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	if mc.dead {
		return errors.New("transport: mux connection is down")
	}
	mc.pending[id] = ch
	return nil
}

// unregister abandons a pending entry (timeout / cancellation); a late
// response for it is discarded by the reader.
func (mc *muxConn) unregister(id uint32) {
	mc.pmu.Lock()
	delete(mc.pending, id)
	mc.pmu.Unlock()
}

// deliver hands one response to its waiter; unmatched IDs (abandoned by
// timeout) are dropped on the floor.
func (mc *muxConn) deliver(id uint32, status byte, payload []byte) {
	mc.pmu.Lock()
	ch, ok := mc.pending[id]
	delete(mc.pending, id)
	mc.pmu.Unlock()
	if ok {
		ch <- muxResult{status: status, payload: payload} // buffered, never blocks
	}
}

// fail marks the connection dead and errors out every waiter.
func (mc *muxConn) fail(err error) {
	mc.pmu.Lock()
	mc.dead = true
	for id, ch := range mc.pending {
		delete(mc.pending, id)
		ch <- muxResult{err: err} // buffered, never blocks
	}
	mc.pmu.Unlock()
}

// DialMux establishes a multiplexed client through dial, which is kept
// for reconnects (like Client.Redial, but mandatory — a mux client that
// cannot redial would strand every pipelined request on the first
// fault), and fetches the default video's manifest, available via
// Manifest.
func DialMux(dial func() (io.ReadWriter, error)) (*MuxClient, error) {
	m := &MuxClient{dial: dial}
	if _, err := m.connect(); err != nil {
		return nil, err
	}
	data, err := m.Do(context.Background(), OpManifest, 0, 0)
	if err == nil {
		m.wm, err = DecodeWireManifest(data)
	}
	if err != nil {
		//lint:allow errcheck the manifest fetch already failed; closing the unusable client is best-effort cleanup
		m.Close()
		return nil, fmt.Errorf("transport: mux manifest: %w", err)
	}
	return m, nil
}

// Manifest returns the default video's manifest, fetched when the client
// was dialed.
func (m *MuxClient) Manifest() *WireManifest { return m.wm }

// Close tears down the current connection; in-flight requests fail and
// later requests return net.ErrClosed-style errors rather than redialing.
func (m *MuxClient) Close() error {
	m.mu.Lock()
	mc := m.cur
	m.cur = nil
	m.closed = true
	m.mu.Unlock()
	if mc == nil {
		return nil
	}
	return closeConn(mc.rw)
}

// connect dials a fresh connection and installs it with its reader
// goroutine. Callers must NOT hold m.mu.
func (m *MuxClient) connect() (*muxConn, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("transport: mux client is closed")
	}
	m.mu.Unlock()
	rw, err := m.dial()
	if err != nil {
		return nil, fmt.Errorf("transport: mux dial: %w", err)
	}
	mc := &muxConn{rw: rw, pending: make(map[uint32]chan muxResult), done: make(chan struct{})}
	go func() {
		defer close(mc.done)
		for {
			id, status, payload, err := readResponse(rw)
			if err != nil {
				mc.fail(err)
				return
			}
			mc.deliver(id, status, payload)
		}
	}()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		//lint:allow errcheck Close won the race with this dial; the fresh conn was never used
		closeConn(rw)
		<-mc.done
		return nil, errors.New("transport: mux client is closed")
	}
	m.cur = mc
	m.mu.Unlock()
	return mc, nil
}

// conn returns the live connection, dialing one if the last one was
// retired. Concurrent callers pile onto the single reconnect behind
// dialMu.
func (m *MuxClient) conn() (*muxConn, error) {
	m.mu.Lock()
	mc := m.cur
	m.mu.Unlock()
	if mc != nil {
		return mc, nil
	}
	m.dialMu.Lock()
	defer m.dialMu.Unlock()
	// Another waiter may have finished the reconnect while this one
	// queued on dialMu.
	m.mu.Lock()
	mc = m.cur
	m.mu.Unlock()
	if mc != nil {
		return mc, nil
	}
	fresh, err := m.connect()
	if err != nil {
		return nil, err
	}
	m.rt.mu.Lock()
	m.rt.Reconnects++
	m.rt.mu.Unlock()
	m.Obs.Counter("transport_client_reconnects_total").Inc()
	m.Log.Info("transport: mux reconnected")
	return fresh, nil
}

// retire abandons mc after a transport error so the next request
// redials; of the concurrent requests that watched it die, the first
// closes it.
func (m *MuxClient) retire(mc *muxConn) {
	m.mu.Lock()
	first := m.cur == mc
	if first {
		m.cur = nil
	}
	m.mu.Unlock()
	if first {
		//lint:allow errcheck the conn is already known broken; closing is best-effort unwinding before redial
		closeConn(mc.rw)
	}
}

// exchange is the multiplexed client's exchanger: one pipelined
// request/response on the current connection. A timeout (ctx's deadline)
// abandons the pending entry without killing the connection; a transport
// error retires the connection, so the retry redials.
func (m *MuxClient) exchange(ctx context.Context, rq request, attempt int, asp *obs.Span) ([]byte, error) {
	mc, err := m.conn()
	if err != nil {
		return nil, err
	}
	id := m.nextID.Add(1)
	ch := make(chan muxResult, 1)
	if err := mc.register(id, ch); err != nil {
		m.retire(mc)
		return nil, err
	}
	mc.wmu.Lock()
	err = writeRequest(mc.rw, rq.frame(id, attempt, asp))
	mc.wmu.Unlock()
	if err != nil {
		mc.unregister(id)
		m.retire(mc)
		return nil, err
	}
	m.bytesUp.Add(reqFrameBytes)
	m.Obs.Counter("transport_client_bytes_up_total").Add(reqFrameBytes)
	m.Obs.Counter("transport_client_requests_total").Inc()
	var t0 time.Time
	if m.Obs != nil {
		t0 = time.Now()
	}
	select {
	case res := <-ch:
		if res.err != nil {
			m.retire(mc)
			return nil, res.err
		}
		n := respFrameBytes + len(res.payload)
		m.bytesDown.Add(int64(n)) // settle counts the obs side
		return settle(m.Obs, m.Log, rq, t0, n, res.status, res.payload)
	case <-ctx.Done():
		// Cancelled or timed out. The connection itself is fine — the
		// late response will be discarded by ID — so it is not retired.
		mc.unregister(id)
		return nil, ctx.Err()
	}
}

// Do performs one request against the given video through the shared
// retry state machine (retrier.do). It is safe to call from any number of
// goroutines.
func (m *MuxClient) Do(ctx context.Context, op byte, arg, video uint32) ([]byte, error) {
	return m.rt.do(ctx, m, request{op, arg, video}, m.Retry, m.Obs, m.Log)
}

// muxVideo is a MuxClient bound to one hosted video.
type muxVideo struct {
	m  *MuxClient
	id uint32
}

func (v muxVideo) Fetch(ctx context.Context, kind stream.Kind, arg int) ([]byte, error) {
	return v.m.Do(ctx, kindOp[kind], uint32(arg), v.id)
}

// Video binds the client to hosted video id as a playback backend: any
// number of stream.Sessions may play through it concurrently, pipelined
// on the one connection.
func (m *MuxClient) Video(id uint32) stream.Fetcher { return muxVideo{m, id} }

// ModelData fetches micro model label of the given video through
// stream.Assembler — the one model assembler, in the model-stream order
// when wm (that video's manifest) advertises a backbone, complete via
// OpModel otherwise or on any assembly failure. The video's backbone is
// fetched, verified and deserialized at most once per client, shared by
// every concurrent session. wm and cfg are validated before anything is
// fetched or built. The returned int is the wire bytes this call
// downloaded (a delta label's first fetch also pays the backbone).
func (m *MuxClient) ModelData(ctx context.Context, video uint32, wm *WireManifest, label int, cfg edsr.Config) (*edsr.Model, int, error) {
	if wm == nil {
		return nil, 0, errors.New("transport: ModelData needs the video's manifest")
	}
	man := wm.Manifest()
	if err := man.ValidateFor(cfg); err != nil {
		return nil, 0, err
	}
	bb, _ := m.backbones.LoadOrStore(video, new(stream.Backbone))
	a := stream.Assembler{Fetcher: m.Video(video), Manifest: man, Config: cfg, Backbone: bb.(*stream.Backbone), Obs: m.Obs, Log: m.Log}
	model, _, cost, err := a.Model(ctx, label)
	return model, cost.Total(), err
}

// MuxStats is a point-in-time snapshot of a MuxClient's accounting: the
// same recovery counters the sequential Client exposes, plus bytes.
type MuxStats struct {
	RecoveryStats
	BytesUp   int64
	BytesDown int64
}

// Stats snapshots the client's counters.
func (m *MuxClient) Stats() MuxStats {
	m.rt.mu.Lock()
	defer m.rt.mu.Unlock()
	return MuxStats{RecoveryStats: m.rt.RecoveryStats, BytesUp: m.bytesUp.Load(), BytesDown: m.bytesDown.Load()}
}
