package transport

import (
	"context"
	"crypto/sha256"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dcsr/internal/faultnet"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// liveHeap is the heap still reachable after two collections (the second
// empties the sync.Pool victim caches the kernels' scratch lives in).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// hashFrames digests a session's output planes in display order.
func hashFrames(frames []*video.YUV) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range frames {
		h.Write(f.Y)
		h.Write(f.U)
		h.Write(f.V)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// soakSession is one client session of TestFaultSoak: the manifest, then
// the playback engine over the wire with the given cache budget.
func soakSession(c *Client, budget int64) ([sha256.Size]byte, int, error) {
	ctx := context.Background()
	v := c.Video(0)
	wm, err := v.Manifest(ctx)
	if err != nil {
		return [sha256.Size]byte{}, 0, err
	}
	opts := stream.DefaultOptions()
	opts.CacheBudget = budget
	sess, err := stream.Open(wm.Manifest(), wm.MicroConfig, v, opts)
	if err != nil {
		return [sha256.Size]byte{}, 0, err
	}
	frames, _, err := sess.Play(ctx)
	return hashFrames(frames), sess.DegradedSegments, err
}

// TestFaultSoak is the concurrency soak of the delivery path: four
// pipelined clients with Redial play sessions concurrently against one
// TCP origin, every connection behind a seeded fault injector (dropped,
// delayed, truncated and failed responses at random; a request lost and
// a request cut mid-frame on schedule), under a retry policy whose
// per-request timeout the slower clients' delays exceed. Every session
// must play through with no degraded segment and pixels identical to a
// fault-free session, and once the clients and the server are closed no
// goroutine may be left and the live heap may not have grown with the
// sessions played. Run it under -race; a longer soak is
// go test -race -run TestFaultSoak -count=N.
func TestFaultSoak(t *testing.T) {
	prep, _ := getFixture(t)
	// The warm-up session (it starts the tensor pool) plays the fault-free
	// reference in process; the goroutine baseline is taken after it.
	ref, _ := playLocal(t, prep, wireOpts)
	want := hashFrames(ref)
	baseline := runtime.NumGoroutine()

	var oneModel int64
	for _, mi := range prep.Manifest.Models {
		oneModel = max(oneModel, int64(mi.Bytes))
	}
	budgets := []int64{-1, 0, oneModel} // unbounded, disabled, one model

	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, served := serveTCP(t, srv)

	const clients, rounds = 4, 12
	injs := make([]*faultnet.Injector, clients)
	muxes := make([]*Client, clients)
	for i := range muxes {
		inj := faultnet.New(faultnet.Config{
			Seed:         int64(i + 1),
			DropRate:     0.04,
			DelayRate:    0.06,
			TruncateRate: 0.04,
			ErrorRate:    0.04,
			// 20, 40, 60 and 80 ms against the 50 ms Timeout below: the
			// first two clients' delayed responses arrive late, the other
			// two clients' time out and retry.
			Delay: time.Duration(i+1) * 20 * time.Millisecond,
			Script: map[int]faultnet.Kind{
				0:  faultnet.KindNone, // DialMux's manifest probe runs before Retry is set
				5:  faultnet.KindDropRequest,
				11: faultnet.KindTruncateRequest,
			},
		})
		dial := func() (io.ReadWriter, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(conn), nil
		}
		mux, err := DialMux(dial)
		if err != nil {
			t.Fatal(err)
		}
		defer mux.Close()
		mux.Retry = RetryPolicy{MaxRetries: 8, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
			Jitter: -1, Timeout: 50 * time.Millisecond}
		injs[i], muxes[i] = inj, mux
	}

	var firstHeap int64
	for r := 0; r < rounds; r++ {
		type outcome struct {
			sum      [sha256.Size]byte
			degraded int
			err      error
		}
		outs := make([]outcome, clients)
		var wg sync.WaitGroup
		for i, mux := range muxes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := &outs[i]
				o.sum, o.degraded, o.err = soakSession(mux, budgets[(r+i)%len(budgets)])
			}()
		}
		wg.Wait()
		for i, o := range outs {
			switch {
			case o.err != nil:
				t.Fatalf("round %d client %d: %v (stats %+v)", r, i, o.err, muxes[i].Stats())
			case o.degraded != 0:
				t.Fatalf("round %d client %d: %d degraded segments (stats %+v)", r, i, o.degraded, muxes[i].Stats())
			case o.sum != want:
				t.Fatalf("round %d client %d: frames differ from the fault-free session", r, i)
			}
		}
		if r == 0 {
			firstHeap = liveHeap()
		}
	}
	// Measured growth from the first round to the last is under 16 KiB;
	// one session's frames, retained, are about 240 KiB.
	const heapBound = 64 << 10
	if growth := liveHeap() - firstHeap; growth > heapBound {
		t.Errorf("live heap grew %d B over %d rounds, bound %d B", growth, rounds-1, heapBound)
	}

	counts := map[string]int{}
	for i, inj := range injs {
		for k, n := range inj.Counts() {
			counts[k] += n
		}
		t.Logf("client %d: %d requests, faults %v, stats %+v", i, inj.Requests(), inj.Counts(), muxes[i].Stats())
	}
	for k := faultnet.KindDrop; k <= faultnet.KindTruncateRequest; k++ {
		if counts[k.String()] == 0 {
			t.Errorf("no %s fault injected: %v", k, counts)
		}
	}

	for _, mux := range muxes {
		if err := mux.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want a clean drain", err)
	}
	<-served
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
	}
}
