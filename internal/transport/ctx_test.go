package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"dcsr/internal/obs"
)

// TestClientCtxCancelledBeforeRequest: a dead context short-circuits the
// retry state machine before any bytes hit the wire.
func TestClientCtxCancelledBeforeRequest(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	defer sconn.Close()
	client := NewClient(cconn)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.ManifestCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ManifestCtx with cancelled ctx = %v, want context.Canceled", err)
	}
	if client.BytesUp != 0 {
		t.Errorf("cancelled request wrote %d bytes", client.BytesUp)
	}
}

// TestClientCtxCancelsBackoff: cancellation lands while the client sleeps
// out a retry backoff. The sleep must be interrupted immediately — the
// call returns context.Canceled orders of magnitude sooner than the
// 30-second backoff it was in.
func TestClientCtxCancelsBackoff(t *testing.T) {
	cconn, sconn := net.Pipe()
	cconn.Close() // every attempt fails instantly, driving a backoff
	sconn.Close()
	client := NewClient(cconn)
	client.Retry = RetryPolicy{
		MaxRetries: 3,
		BaseDelay:  30 * time.Second,
		MaxDelay:   30 * time.Second,
		Jitter:     -1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := client.ManifestCtx(ctx)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the backoff start
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ManifestCtx during backoff = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backoff sleep was not interrupted by cancellation")
	}
}

// TestClientCtxDeadlineCutsRead: a context deadline tightens the read
// deadline of the in-flight request, so a server that never answers
// cannot stall the client past the context's lifetime.
func TestClientCtxDeadlineCutsRead(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	defer sconn.Close()
	go func() {
		// Swallow the request, never respond.
		buf := make([]byte, reqFrameBytes)
		for {
			if _, err := sconn.Read(buf); err != nil {
				return
			}
		}
	}()
	client := NewClient(cconn)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.ManifestCtx(ctx)
	if err == nil {
		t.Fatal("ManifestCtx succeeded against a mute server")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !isTimeoutErr(err) {
		t.Fatalf("err = %v, want deadline/timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("read stalled %v past the 100ms context deadline", elapsed)
	}
	if client.Timeouts == 0 {
		t.Error("timeout was not counted")
	}
}

// serveTCP starts srv on a loopback listener and returns its address
// plus a channel that closes when the accept loop exits. Connections
// accepted this way are tracked by the server's drain waitgroup — the
// population Shutdown manages.
func serveTCP(t *testing.T, srv *Server) (string, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), served
}

// TestServerShutdownGraceful: once clients hang up on their own,
// Shutdown drains without force-closing anything and returns nil ctx
// error (the listener close result).
func TestServerShutdownGraceful(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	addr, served := serveTCP(t, srv)
	client, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ManifestCtx(context.Background()); err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	conn.Close() // handler sees EOF and exits on its own
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown on a drained server = %v, want nil", err)
	}
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Fatal("accept loop still running after Shutdown returned")
	}
}

// TestServerShutdownForceClosesStragglers: a connection that stays open
// counts as in-flight; when the drain deadline expires Shutdown
// force-closes it, finishes the drain, and reports the deadline error.
func TestServerShutdownForceClosesStragglers(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := serveTCP(t, srv)
	client, conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := client.ManifestCtx(context.Background()); err != nil {
		t.Fatalf("Manifest: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with straggler = %v, want context.DeadlineExceeded", err)
	}
	// The forced close is visible client-side: the next request fails.
	if _, err := client.ManifestCtx(context.Background()); err == nil {
		t.Error("request succeeded over a force-closed connection")
	}
}

// TestPlayCtxCancelled: PlayCtx with a dead context returns before
// fetching anything.
func TestPlayCtxCancelled(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	d := &pipeDialer{t: t, srv: srv}
	defer d.cleanup()
	conn, err := d.dial()
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := client.PlayCtx(ctx, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlayCtx with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestPlayCacheBudgetEvictsAndRefetches pins the transport-level bounded
// cache: a budget that fits one model forces evictions and re-downloads
// without changing what gets enhanced, and an unbounded client (the
// default CacheBudget of 0) reproduces the pre-budget hit counts.
func TestPlayCacheBudgetEvictsAndRefetches(t *testing.T) {
	prep, _ := getFixture(t)
	if len(prep.Models) < 2 {
		t.Skip("fixture has a single model; nothing to evict")
	}
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	var modelSize int
	for _, sm := range prep.Models {
		modelSize = len(sm.Bytes)
		break
	}

	play := func(budget int64, o *obs.Obs) *PlayStats {
		t.Helper()
		d := &pipeDialer{t: t, srv: srv}
		defer d.cleanup()
		conn, err := d.dial()
		if err != nil {
			t.Fatal(err)
		}
		client := NewClient(conn)
		client.CacheBudget = budget
		client.Obs = o
		_, stats, err := client.PlayCtx(context.Background(), true)
		if err != nil {
			t.Fatalf("Play(budget=%d): %v", budget, err)
		}
		return stats
	}

	base := play(0, nil) // unbounded default
	if base.Evictions != 0 {
		t.Errorf("unbounded client evicted %d models", base.Evictions)
	}

	o := obs.New()
	tight := play(int64(modelSize), o)
	if tight.Evictions == 0 {
		t.Error("tight budget produced no evictions")
	}
	if tight.CacheBytes > int64(modelSize) {
		t.Errorf("cache bytes %d exceed budget %d", tight.CacheBytes, modelSize)
	}
	if tight.ModelDownloads <= base.ModelDownloads {
		t.Errorf("tight budget downloads = %d, want > unbounded %d",
			tight.ModelDownloads, base.ModelDownloads)
	}
	if tight.Enhanced != base.Enhanced {
		t.Errorf("enhanced frames %d != unbounded baseline %d", tight.Enhanced, base.Enhanced)
	}
	if tight.DegradedSegments != 0 {
		t.Errorf("degraded segments = %d, want 0", tight.DegradedSegments)
	}
	if got := o.Metrics.Snapshot().Counters["modelstore_evictions_total"]; got != int64(tight.Evictions) {
		t.Errorf("modelstore_evictions_total = %d, want %d", got, tight.Evictions)
	}
}
