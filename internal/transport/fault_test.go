package transport

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcsr/internal/faultnet"
	"dcsr/internal/obs"
)

// pipeDialer produces fresh client connections to srv over net.Pipe,
// optionally wrapped by a fault injector, and remembers them so the test
// can close whatever is left open.
type pipeDialer struct {
	t     *testing.T
	srv   *Server
	inj   *faultnet.Injector
	conns []io.Closer
}

func (d *pipeDialer) dial() (io.ReadWriter, error) {
	cconn, sconn := net.Pipe()
	go func() { _ = d.srv.ServeConn(sconn) }()
	d.conns = append(d.conns, cconn, sconn)
	if d.inj == nil {
		return cconn, nil
	}
	return d.inj.Wrap(cconn), nil
}

func (d *pipeDialer) cleanup() {
	for _, c := range d.conns {
		c.Close()
	}
}

// repeatedLabel returns a model label referenced by at least two segments,
// so degrade-then-lazy-retry is observable.
func repeatedLabel(t *testing.T, srv *Server) int {
	t.Helper()
	prep, _ := getFixture(t)
	seen := map[int]int{}
	for _, s := range prep.Manifest.Segments {
		if s.ModelLabel < 0 {
			continue
		}
		seen[s.ModelLabel]++
		if seen[s.ModelLabel] == 2 {
			return s.ModelLabel
		}
	}
	t.Skip("fixture has no repeated model label")
	return -1
}

// TestPlaySurvivesDroppedModelFetch is the tentpole acceptance test: the
// response to every fetch attempt of one model's first reference is
// dropped. The client must retry with backoff, reconnect each time,
// eventually degrade the label, keep playing unenhanced, and re-fetch the
// label successfully on its next reference.
func TestPlaySurvivesDroppedModelFetch(t *testing.T) {
	prep, frames := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	label := repeatedLabel(t, srv)
	const maxRetries = 2
	failuresLeft := maxRetries + 1 // exactly the first reference's attempts
	inj := faultnet.New(faultnet.Config{
		Decide: func(_ int, frame []byte) faultnet.Kind {
			if op, arg, ok := PeekRequest(frame); ok && op == OpModel && arg == uint32(label) && failuresLeft > 0 {
				failuresLeft--
				return faultnet.KindDrop
			}
			return faultnet.KindNone
		},
	})
	d := &pipeDialer{t: t, srv: srv, inj: inj}
	defer d.cleanup()
	conn, err := d.dial()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	client := NewClient(conn)
	client.Obs = o
	client.Redial = d.dial
	client.Retry = RetryPolicy{
		MaxRetries: maxRetries,
		BaseDelay:  time.Millisecond,
		MaxDelay:   4 * time.Millisecond,
		Jitter:     -1,
		Seed:       1,
	}

	out, stats, err := client.PlayCtx(context.Background(), true)
	if err != nil {
		t.Fatalf("Play aborted despite degradation: %v", err)
	}
	if len(out) != len(frames) {
		t.Fatalf("streamed %d frames, want %d", len(out), len(frames))
	}
	if stats.DegradedSegments != 1 {
		t.Errorf("DegradedSegments = %d, want 1", stats.DegradedSegments)
	}
	if failuresLeft != 0 {
		t.Errorf("injector has %d scheduled failures unconsumed", failuresLeft)
	}
	// Every attempt of the failed reference except the last triggers a
	// backoff+retry; each retry (and the next request after the final
	// failure) reconnects.
	if client.Retries != maxRetries {
		t.Errorf("Retries = %d, want %d", client.Retries, maxRetries)
	}
	if client.Reconnects != maxRetries+1 {
		t.Errorf("Reconnects = %d, want %d", client.Reconnects, maxRetries+1)
	}
	if client.StallTime <= 0 {
		t.Error("StallTime not accumulated across backoffs")
	}
	// Lazy retry: the label's second reference downloads it, so every
	// model is still fetched exactly once successfully.
	if stats.ModelDownloads != len(prep.Models) {
		t.Errorf("ModelDownloads = %d, want %d (degraded label not re-fetched)",
			stats.ModelDownloads, len(prep.Models))
	}
	snap := o.Metrics.Snapshot()
	for name, want := range map[string]int64{
		"transport_client_retries_total":    int64(client.Retries),
		"transport_client_reconnects_total": int64(client.Reconnects),
		"degraded_segments_total":           1,
		"model_fetch_failures_total":        1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Counters["transport_client_timeouts_total"] != 0 {
		t.Errorf("drops misclassified as timeouts: %d", snap.Counters["transport_client_timeouts_total"])
	}
}

// TestPlayWithTimeout delays one response beyond the per-request deadline
// and asserts the client classifies it as a timeout, reconnects, and
// completes the exchange.
func TestPlayWithTimeout(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(faultnet.Config{
		Script: map[int]faultnet.Kind{0: faultnet.KindDelay},
		Delay:  300 * time.Millisecond,
	})
	d := &pipeDialer{t: t, srv: srv, inj: inj}
	defer d.cleanup()
	conn, err := d.dial()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	client := NewClient(conn)
	client.Obs = o
	client.Redial = d.dial
	client.Retry = RetryPolicy{
		MaxRetries: 1,
		BaseDelay:  time.Millisecond,
		Jitter:     -1,
		Timeout:    30 * time.Millisecond,
	}
	wm, err := client.ManifestCtx(context.Background())
	if err != nil {
		t.Fatalf("manifest after timeout+retry: %v", err)
	}
	if len(wm.Segments) != len(prep.Segments) {
		t.Fatalf("manifest has %d segments, want %d", len(wm.Segments), len(prep.Segments))
	}
	if client.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", client.Timeouts)
	}
	if got := o.Metrics.Snapshot().Counters["transport_client_timeouts_total"]; got != 1 {
		t.Errorf("transport_client_timeouts_total = %d, want 1", got)
	}
}

// TestFaultsDisabledByteIdentical pins the zero-fault path: a client with
// a retry policy, a redial hook and a zero-config injector in the stack
// must behave byte-for-byte like the seed client.
func TestFaultsDisabledByteIdentical(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	play := func(inj *faultnet.Injector, pol RetryPolicy) ([]int, *PlayStats, int, int) {
		d := &pipeDialer{t: t, srv: srv, inj: inj}
		defer d.cleanup()
		conn, err := d.dial()
		if err != nil {
			t.Fatal(err)
		}
		client := NewClient(conn)
		client.Retry = pol
		client.Redial = d.dial
		out, stats, err := client.PlayCtx(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]int, len(out))
		for i, f := range out {
			for _, p := range f.Y {
				sums[i] += int(p)
			}
		}
		return sums, stats, client.BytesUp, client.BytesDown
	}
	plainSums, plainStats, plainUp, plainDown := play(nil, RetryPolicy{})
	wrapSums, wrapStats, wrapUp, wrapDown := play(
		faultnet.New(faultnet.Config{}),
		RetryPolicy{MaxRetries: 3, Timeout: 5 * time.Second, Seed: 7},
	)
	if !reflect.DeepEqual(plainSums, wrapSums) {
		t.Error("frame content differs between plain and fault-instrumented stacks")
	}
	if !reflect.DeepEqual(plainStats, wrapStats) {
		t.Errorf("stats differ: plain %+v, instrumented %+v", plainStats, wrapStats)
	}
	if plainUp != wrapUp || plainDown != wrapDown {
		t.Errorf("byte accounting differs: plain %d/%d, instrumented %d/%d",
			plainUp, plainDown, wrapUp, wrapDown)
	}
	if wrapStats.DegradedSegments != 0 {
		t.Errorf("DegradedSegments = %d with no faults", wrapStats.DegradedSegments)
	}
}

// TestRetryBackoffSchedule pins the exponential schedule: base 10ms,
// doubling, capped at 50ms, jitter disabled.
func TestRetryBackoffSchedule(t *testing.T) {
	inj := faultnet.New(faultnet.Config{
		Decide: func(int, []byte) faultnet.Kind { return faultnet.KindDrop },
	})
	dead := func() (io.ReadWriter, error) {
		return inj.Wrap(readWriter{strings.NewReader("")}), nil
	}
	conn, _ := dead()
	client := NewClient(conn)
	client.Redial = dead
	client.Retry = RetryPolicy{
		MaxRetries: 4,
		BaseDelay:  10 * time.Millisecond,
		Multiplier: 2,
		MaxDelay:   50 * time.Millisecond,
		Jitter:     -1,
	}
	var sleeps []time.Duration
	client.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	_, err := client.ManifestCtx(context.Background())
	if !errors.Is(err, faultnet.ErrInjected) {
		t.Fatalf("exhausted retries returned %v, want wrapped ErrInjected", err)
	}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond,
	}
	if !reflect.DeepEqual(sleeps, want) {
		t.Fatalf("backoff schedule %v, want %v", sleeps, want)
	}
	var total time.Duration
	for _, d := range want {
		total += d
	}
	if client.StallTime != total {
		t.Errorf("StallTime = %v, want %v", client.StallTime, total)
	}
}

// TestBackoffJitterBounds checks jittered backoffs stay within the
// documented band and reproduce under one seed.
func TestBackoffJitterBounds(t *testing.T) {
	pol := RetryPolicy{MaxRetries: 3, BaseDelay: 100 * time.Millisecond, Jitter: 0.5}.withDefaults()
	schedule := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var out []time.Duration
		for a := 0; a < 6; a++ {
			d := pol.backoff(a, rng)
			out = append(out, d)
			base := pol.BaseDelay << a
			if base > pol.MaxDelay {
				base = pol.MaxDelay
			}
			if d < base/2 || d > base {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", a, d, base/2, base)
			}
		}
		return out
	}
	if !reflect.DeepEqual(schedule(3), schedule(3)) {
		t.Error("same seed produced different jitter schedules")
	}
}

// TestNotFoundNeverRetried pins that deterministic protocol rejections
// bypass the retry machinery entirely.
func TestNotFoundNeverRetried(t *testing.T) {
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
	client.Redial = d.dial
	client.Retry = RetryPolicy{MaxRetries: 5, BaseDelay: time.Millisecond}
	_, err = client.SegmentCtx(context.Background(), 9999)
	if err == nil {
		t.Fatal("out-of-range segment accepted")
	}
	if !IsNotFound(err) {
		t.Errorf("IsNotFound(%v) = false, want true", err)
	}
	if client.Retries != 0 || client.Reconnects != 0 {
		t.Errorf("NotFound consumed retries (%d) / reconnects (%d)", client.Retries, client.Reconnects)
	}
	// The connection stays synchronized after the rejection.
	if _, err := client.ManifestCtx(context.Background()); err != nil {
		t.Fatalf("connection dead after NotFound: %v", err)
	}
}

// TestBrokenConnWithoutRedialFails pins the zero-Redial contract:
// transport failures stay fatal.
func TestBrokenConnWithoutRedialFails(t *testing.T) {
	inj := faultnet.New(faultnet.Config{
		Decide: func(int, []byte) faultnet.Kind { return faultnet.KindDrop },
	})
	client := NewClient(inj.Wrap(readWriter{strings.NewReader("")}))
	client.Retry = RetryPolicy{MaxRetries: 2, BaseDelay: time.Microsecond}
	_, err := client.ManifestCtx(context.Background())
	if err == nil {
		t.Fatal("broken connection without Redial succeeded")
	}
	if !strings.Contains(err.Error(), "Redial") {
		t.Errorf("error %q does not mention the missing Redial hook", err)
	}
}
