package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/faultnet"
	"dcsr/internal/obs"
)

// muxDialer returns a dial function that opens a fresh net.Pipe served
// by srv for every call, recording the client ends so tests can sever
// connections deliberately.
func muxDialer(srv *Server) (dial func() (io.ReadWriter, error), conns *[]net.Conn) {
	var mu sync.Mutex
	var cs []net.Conn
	conns = &cs
	dial = func() (io.ReadWriter, error) {
		cconn, sconn := net.Pipe()
		go func() { _ = srv.ServeConn(sconn) }()
		mu.Lock()
		cs = append(cs, cconn)
		mu.Unlock()
		return cconn, nil
	}
	return dial, conns
}

// TestMuxPipeliningOutOfOrder pins the point of request IDs: a slow
// request does not block a later one on the same connection, and each
// response is matched back to its own request by ID.
func TestMuxPipeliningOutOfOrder(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	hold := make(chan struct{})
	var first sync.Once
	srv.admitHold = func(op byte) {
		if op != OpSegment {
			return
		}
		blocked := false
		first.Do(func() { blocked = true })
		if blocked {
			close(entered)
			<-hold
		}
	}
	dial, _ := muxDialer(srv)
	mux, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	slow := make(chan []byte, 1)
	go func() {
		p, err := mux.Do(context.Background(), OpSegment, 0, 0)
		if err != nil {
			t.Errorf("slow request failed: %v", err)
		}
		slow <- p
	}()
	<-entered // request 0 is pinned inside the handler
	fast, err := mux.Do(context.Background(), OpSegment, 1, 0)
	if err != nil {
		t.Fatalf("pipelined request stuck behind a slow one: %v", err)
	}
	close(hold)
	got0 := <-slow
	if !bytes.Equal(fast, srv.videos[0].segments[1]) {
		t.Error("out-of-order response matched to the wrong request (segment 1)")
	}
	if !bytes.Equal(got0, srv.videos[0].segments[0]) {
		t.Error("out-of-order response matched to the wrong request (segment 0)")
	}
}

// TestMuxConcurrentRequests hammers one Client from many goroutines
// over a single TCP connection (run under -race) and checks every
// response lands on the request that asked for it.
func TestMuxConcurrentRequests(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	mux, err := DialMux(func() (io.ReadWriter, error) {
		return net.Dial("tcp", ln.Addr().String())
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range srv.videos[0].segments {
				p, err := mux.Do(context.Background(), OpSegment, uint32(i), 0)
				if err != nil {
					t.Errorf("segment %d: %v", i, err)
					return
				}
				if !bytes.Equal(p, srv.videos[0].segments[i]) {
					t.Errorf("segment %d: response mismatched", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := mux.Stats()
	if st.BytesUp == 0 || st.BytesDown == 0 {
		t.Errorf("stats did not account traffic: %+v", st)
	}
	if st.Reconnects != 0 || st.Timeouts != 0 {
		t.Errorf("clean run recorded failures: %+v", st)
	}
}

// TestMuxSharedBackbonePerVideo pins ModelData's backbone sharing on a
// two-video server: however many sessions of a video assemble models
// concurrently, its backbone is downloaded once per client — and a
// backbone download in flight for one video does not stall model fetches
// for another.
func TestMuxSharedBackbonePerVideo(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	preps := []*core.Prepared{getDeltaFixture(t), prepareDelta(t, 37, 2)}
	srv := NewFleetServer()
	for _, p := range preps {
		if _, err := srv.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the first OpBackbone the server admits — video 0's — until
	// released, and count them all.
	var backbones atomic.Int32
	held, release := make(chan struct{}), make(chan struct{})
	srv.admitHold = func(op byte) {
		if op == OpBackbone && backbones.Add(1) == 1 {
			close(held)
			<-release
		}
	}
	dial, conns := muxDialer(srv)
	mux, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		mux.Close()
		for _, c := range *conns {
			c.Close()
		}
	}()
	co := obs.New()
	mux.Obs = co
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Each video's manifest and one of its delta-shipped labels.
	var wms [2]*WireManifest
	var deltaLabel [2]int
	for v := range wms {
		payload, err := mux.Do(ctx, OpManifest, 0, uint32(v))
		if err != nil {
			t.Fatal(err)
		}
		if wms[v], err = DecodeWireManifest(payload); err != nil {
			t.Fatal(err)
		}
		deltaLabel[v] = -1
		for _, mi := range wms[v].Models {
			if mi.Delta {
				deltaLabel[v] = mi.Label
			}
		}
		if deltaLabel[v] < 0 {
			t.Fatalf("video %d ships no delta model", v)
		}
	}
	fetch := func(v int) error {
		m, n, err := mux.ModelData(ctx, uint32(v), wms[v], deltaLabel[v], wms[v].MicroConfig)
		if err == nil && m == nil {
			err = errors.New("no model")
		}
		// Only the session that paid for the backbone reports its bytes;
		// video 1 has a single session, which must.
		if err == nil && v == 1 && n <= wms[v].Backbone.Bytes {
			err = fmt.Errorf("downloaded %d bytes, want backbone (%d) plus a delta", n, wms[v].Backbone.Bytes)
		}
		return err
	}
	const sessions = 6
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() { errs <- fetch(0) }()
	}
	<-held
	// Video 0's backbone download is parked inside the server with every
	// video-0 session waiting on it; video 1 must get through regardless.
	if err := fetch(1); err != nil {
		t.Fatalf("video 1 model fetch while video 0's backbone is in flight: %v", err)
	}
	close(release)
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("video 0 session: %v", err)
		}
	}
	if got := backbones.Load(); got != 2 {
		t.Errorf("server answered %d OpBackbone requests, want 2 (one per video)", got)
	}
	snap := co.Metrics.Snapshot()
	if got := snap.Counters["modelstream_backbone_fetch_total"]; got != 2 {
		t.Errorf("modelstream_backbone_fetch_total = %d, want 2", got)
	}
	if got := snap.Counters["modelstream_fallback_total"]; got != 0 {
		t.Errorf("modelstream_fallback_total = %d, want 0", got)
	}
}

// TestMuxTimeoutKeepsConnection pins the live half of the timeout rule: a
// request that times out while other responses keep arriving on its
// connection abandons its pending entry and retries on the SAME
// connection; its late response is discarded by ID instead of
// desynchronizing the stream.
func TestMuxTimeoutKeepsConnection(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	srv.admitHold = func(op byte) {
		if op == OpSegment && calls.Add(1) == 1 {
			time.Sleep(150 * time.Millisecond) // first data request: slower than the deadline
		}
	}
	dial, _ := muxDialer(srv)
	mux, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	mux.Retry = RetryPolicy{
		MaxRetries: 1,
		Timeout:    30 * time.Millisecond,
		BaseDelay:  time.Millisecond,
		MaxDelay:   2 * time.Millisecond,
		Seed:       1,
	}
	// A concurrent caller keeps responses arriving while the slow request
	// waits, so the connection is visibly live.
	stop, busy := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				busy <- nil
				return
			default:
			}
			if _, err := mux.Do(context.Background(), OpManifest, 0, 0); err != nil {
				busy <- err
				return
			}
		}
	}()
	p, err := mux.Do(context.Background(), OpSegment, 0, 0)
	close(stop)
	if err != nil {
		t.Fatalf("retry after timeout failed: %v", err)
	}
	if err := <-busy; err != nil {
		t.Fatalf("concurrent request failed: %v", err)
	}
	if !bytes.Equal(p, srv.videos[0].segments[0]) {
		t.Error("retried response mismatched")
	}
	st := mux.Stats()
	if st.Timeouts != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v, want exactly one timeout and one retry", st)
	}
	if st.Reconnects != 0 {
		t.Errorf("timeout forced a reconnect (%d); the connection should have been kept", st.Reconnects)
	}
}

// stallConn is a server end whose responses are held back by delay once
// stalled is set: a link that has gone quiet.
type stallConn struct {
	net.Conn
	stalled *atomic.Bool
	delay   time.Duration
}

func (s stallConn) Write(p []byte) (int, error) {
	if s.stalled.Load() {
		time.Sleep(s.delay)
	}
	return s.Conn.Write(p)
}

// TestStalledConnectionReconnects pins the stalled half of the timeout
// rule: when nothing at all arrives on the connection while a request
// waits out its timeout, the connection is retired and the retry redials,
// instead of retrying into the same silence.
func TestStalledConnectionReconnects(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	var stalled atomic.Bool
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	dial := func() (io.ReadWriter, error) {
		cconn, sconn := net.Pipe()
		var serve io.ReadWriter = sconn
		if len(conns) == 0 { // only the first connection stalls
			serve = stallConn{sconn, &stalled, 2 * time.Second}
		}
		go func() { _ = srv.ServeConn(serve) }()
		conns = append(conns, cconn, sconn)
		return cconn, nil
	}
	mux, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	mux.Retry = RetryPolicy{MaxRetries: 2, Timeout: 30 * time.Millisecond, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1}
	stalled.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	p, err := mux.Do(ctx, OpSegment, 0, 0)
	if err != nil {
		t.Fatalf("request on a stalled connection failed: %v (stats %+v)", err, mux.Stats())
	}
	if !bytes.Equal(p, srv.videos[0].segments[0]) {
		t.Error("response after the reconnect mismatched")
	}
	if st := mux.Stats(); st.Timeouts != 1 || st.Reconnects != 1 {
		t.Errorf("stats = %+v, want one timeout and one reconnect", st)
	}
}

// TestReaderExits pins the reader goroutine's lifetime: it exits when the
// client is closed and when the peer hangs up.
func TestReaderExits(t *testing.T) {
	for _, tc := range []struct {
		name string
		hang func(c *Client, peer net.Conn)
	}{
		{"close", func(c *Client, _ net.Conn) { c.Close() }},
		{"peer", func(_ *Client, peer net.Conn) { peer.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cconn, sconn := net.Pipe()
			defer cconn.Close()
			defer sconn.Close()
			c := NewClient(cconn)
			l := c.cur
			tc.hang(c, sconn)
			select {
			case <-l.done:
			case <-time.After(5 * time.Second):
				t.Fatal("reader goroutine still running")
			}
		})
	}
}

// TestRequestFaultsRedial pins request-side faults under the pipelined
// reader: a request lost before the server, or cut mid-frame, fails its
// attempt with faultnet.ErrInjected at once — not after a timeout — and
// the retry redials.
func TestRequestFaultsRedial(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faultnet.Kind{faultnet.KindDropRequest, faultnet.KindTruncateRequest} {
		t.Run(kind.String(), func(t *testing.T) {
			inj := faultnet.New(faultnet.Config{Decide: firstSegmentRequest(kind)})
			d := &pipeDialer{t: t, srv: srv, inj: inj}
			defer d.cleanup()
			mux, err := DialMux(d.dial)
			if err != nil {
				t.Fatal(err)
			}
			mux.Retry = RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1, Seed: 1}
			root := obs.New().Start("fetch")
			ctx, cancel := context.WithTimeout(obs.WithSpan(context.Background(), root), time.Second)
			defer cancel()
			if _, err := mux.Do(ctx, OpSegment, 0, 0); err != nil {
				t.Fatalf("segment fetch did not survive the %s fault: %v (stats %+v)", kind, err, mux.Stats())
			}
			root.End()
			attempts := root.Export().Children
			if len(attempts) != 2 || !strings.Contains(fmt.Sprint(attempts[0].Attrs["error"]), faultnet.ErrInjected.Error()) {
				t.Errorf("attempts %+v, want two, the first failed by the injected fault", attempts)
			}
			if st := mux.Stats(); st.Retries != 1 || st.Reconnects != 1 || st.Timeouts != 0 {
				t.Errorf("stats = %+v, want one retry, one reconnect, no timeout", st)
			}
		})
	}
}

// TestMuxReconnectAfterTransportError severs the connection under a
// Client and checks the next request redials once and succeeds.
func TestMuxReconnectAfterTransportError(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	dial, conns := muxDialer(srv)
	mux, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	mux.Retry = RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1}
	if _, err := mux.Do(context.Background(), OpSegment, 0, 0); err != nil {
		t.Fatal(err)
	}
	(*conns)[0].Close() // sever the live connection
	p, err := mux.Do(context.Background(), OpSegment, 1, 0)
	if err != nil {
		t.Fatalf("request after severed conn failed: %v", err)
	}
	if !bytes.Equal(p, srv.videos[0].segments[1]) {
		t.Error("post-reconnect response mismatched")
	}
	if got := mux.Stats().Reconnects; got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if len(*conns) != 2 {
		t.Errorf("dialer used %d connections, want 2", len(*conns))
	}
}

// TestMuxClosedClient pins Close semantics: no redial, typed failure.
func TestMuxClosedClient(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	dial, conns := muxDialer(srv)
	mux, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	if err := mux.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Do(context.Background(), OpSegment, 0, 0); err == nil {
		t.Fatal("request on a closed client succeeded")
	}
	if len(*conns) != 1 {
		t.Errorf("closed client redialed (%d conns)", len(*conns))
	}
}

// TestDialMuxDialFailure propagates the dial error instead of returning
// a half-constructed client.
func TestDialMuxDialFailure(t *testing.T) {
	boom := errors.New("boom")
	if _, err := DialMux(func() (io.ReadWriter, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want dial error, got %v", err)
	}
}
