package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dcsr/internal/obs"
)

func TestAdmissionConfigDefaults(t *testing.T) {
	c := AdmissionConfig{}.withDefaults()
	if c.RetryAfter != 50*time.Millisecond {
		t.Errorf("RetryAfter default = %v, want 50ms", c.RetryAfter)
	}
	if c.PerConnBurst != 0 {
		t.Errorf("PerConnBurst = %v without a rate, want 0", c.PerConnBurst)
	}
	c = AdmissionConfig{PerConnRate: 0.25}.withDefaults()
	if c.PerConnBurst != 1 {
		t.Errorf("PerConnBurst for sub-1 rate = %v, want 1", c.PerConnBurst)
	}
	c = AdmissionConfig{PerConnRate: 40}.withDefaults()
	if c.PerConnBurst != 40 {
		t.Errorf("PerConnBurst default = %v, want rate 40", c.PerConnBurst)
	}
	if (AdmissionConfig{}).limited() {
		t.Error("zero config reports limited")
	}
	for _, cfg := range []AdmissionConfig{
		{MaxInflight: 1}, {PerConnRate: 1},
	} {
		if !cfg.limited() {
			t.Errorf("config %+v reports unlimited", cfg)
		}
	}
}

// TestTokenBucketHint pins the rate-limit shed hint math: an empty bucket
// tells the client exactly how long until the next whole token, and the
// bucket refills against the injected clock.
func TestTokenBucketHint(t *testing.T) {
	now := time.Unix(100, 0)
	adm := newAdmission(AdmissionConfig{PerConnRate: 10, PerConnBurst: 2})
	g := adm.gate(func() time.Time { return now })

	for i := 0; i < 2; i++ {
		release, _, ok := g.admit()
		if !ok {
			t.Fatalf("request %d within burst was shed", i)
		}
		release()
	}
	// Bucket empty: the next token arrives in 1/rate = 100ms.
	_, hint, ok := g.admit()
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if hint != 100*time.Millisecond {
		t.Fatalf("shed hint = %v, want 100ms", hint)
	}
	// Advance half a token: 50ms of refill still sheds, with a 50ms hint.
	now = now.Add(50 * time.Millisecond)
	if _, hint, ok = g.admit(); ok || hint != 50*time.Millisecond {
		t.Fatalf("half-refilled bucket: ok=%v hint=%v, want shed with 50ms", ok, hint)
	}
	// A full refill interval admits again.
	now = now.Add(50 * time.Millisecond)
	if _, _, ok := g.admit(); !ok {
		t.Fatal("refilled bucket shed the request")
	}
}

// TestAdmissionLimits pins the global MaxInflight limit across
// connections, including release returning capacity.
func TestAdmissionLimits(t *testing.T) {
	adm := newAdmission(AdmissionConfig{MaxInflight: 3, RetryAfter: 7 * time.Millisecond})
	g1, g2 := adm.gate(nil), adm.gate(nil)

	rel1, _, ok := g1.admit()
	if !ok {
		t.Fatal("first request shed")
	}
	if _, _, ok := g1.admit(); !ok {
		t.Fatal("second request on conn 1 shed")
	}
	rel2, _, ok := g2.admit()
	if !ok {
		t.Fatal("conn 2 first request shed")
	}
	// Global inflight is now 3 = MaxInflight: the next request on either
	// connection sheds with the configured hint.
	for i, g := range []*connGate{g1, g2} {
		if _, hint, ok := g.admit(); ok || hint != 7*time.Millisecond {
			t.Fatalf("conn %d beyond MaxInflight: ok=%v hint=%v, want shed with 7ms", i+1, ok, hint)
		}
	}
	if got, peak := adm.snapshot(); got != 3 || peak != 3 {
		t.Fatalf("snapshot = (%d, %d), want (3, 3)", got, peak)
	}
	// A slot released on one connection admits a request on the other.
	rel1()
	if _, _, ok := g2.admit(); !ok {
		t.Fatal("conn 2 shed after conn 1 released a slot")
	}
	rel2()
	if _, _, ok := g1.admit(); !ok {
		t.Fatal("conn 1 shed after conn 2 released a slot")
	}
	// Live slots: conn 1's two requests and conn 2's re-admitted one.
	// Peak stays at the high-water mark.
	if got, peak := adm.snapshot(); got != 3 || peak != 3 {
		t.Fatalf("post-release snapshot = (%d, %d), want (3, 3)", got, peak)
	}
	if _, _, ok := g2.admit(); ok {
		t.Fatal("request beyond MaxInflight admitted after the releases")
	}
}

// TestAdmissionConcurrentLoad drives six pipelined requests into a
// MaxInflight=3 server (run under -race). The first three are admitted
// and pinned in the handler; the remaining three must be shed with typed
// retry-after rejections — no hard errors, no lost responses.
func TestAdmissionConcurrentLoad(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	srv.Obs = obs.New()
	srv.Admission = AdmissionConfig{MaxInflight: 3}
	hold := make(chan struct{})
	srv.admitHold = func(req wireRequest) {
		if req.Op == OpSegment { // let the negotiation probe through
			<-hold
		}
	}
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()

	mux, err := DialMux(func() (io.ReadWriter, error) { return cconn, nil })
	if err != nil {
		t.Fatal(err)
	}
	// The server releases the manifest probe's slot after writing its
	// response, so DialMux can return while the probe still holds it and
	// the burst's third request would be shed: wait for the slot first.
	_, _, adm := srv.serveState()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if inflight, _ := adm.snapshot(); inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the manifest probe's admission slot was not released")
		}
	}
	// Zero retry policy: a shed surfaces immediately as a typed error.
	const reqs = 6
	type result struct {
		payload []byte
		err     error
	}
	results := make(chan result, reqs)
	var launched sync.WaitGroup
	for i := 0; i < reqs; i++ {
		launched.Add(1)
		go func() {
			defer launched.Done()
			p, err := mux.Do(context.Background(), OpSegment, 0, 0)
			results <- result{p, err}
		}()
	}
	// Collect the three sheds first — only then unblock the held three.
	var sheds int
	for sheds < 3 {
		r := <-results
		if _, ok := retryAfter(r.err); !ok {
			t.Fatalf("expected typed retry-after, got payload=%d err=%v", len(r.payload), r.err)
		}
		sheds++
	}
	close(hold)
	for i := 0; i < reqs-3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("admitted request failed: %v", r.err)
		}
		if len(r.payload) == 0 {
			t.Fatal("admitted request returned an empty segment")
		}
	}
	launched.Wait()
	if got := srv.Obs.Counter("transport_shed_total").Value(); got != 3 {
		t.Errorf("transport_shed_total = %d, want 3", got)
	}
	if got := mux.Stats().Sheds; got != 3 {
		t.Errorf("client sheds = %d, want 3", got)
	}
	if got := srv.Obs.Gauge("transport_inflight_peak").Value(); got != 3 {
		t.Errorf("transport_inflight_peak = %d, want 3", got)
	}
}

// TestAdmissionFairnessGreedyClient pins the per-client budget: a greedy
// client pipelining four requests is clipped to what its own token bucket
// holds while a modest client on another connection keeps being served.
func TestAdmissionFairnessGreedyClient(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	// Three tokens and no refill to speak of: each DialMux manifest probe
	// takes one, which leaves the greedy client two of its four requests.
	srv.Admission = AdmissionConfig{PerConnRate: 1e-6, PerConnBurst: 3}
	hold := make(chan struct{})
	srv.admitHold = func(req wireRequest) {
		if req.Op == OpSegment {
			<-hold
		}
	}
	dial := func() (io.ReadWriter, error) {
		cconn, sconn := net.Pipe()
		go func() { _ = srv.ServeConn(sconn) }()
		return cconn, nil
	}
	greedy, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	const reqs = 4
	errs := make(chan error, reqs)
	for i := 0; i < reqs; i++ {
		go func() { // greedy: pipeline everything at once
			_, err := greedy.Do(context.Background(), OpSegment, 0, 0)
			errs <- err
		}()
	}
	var sheds int
	for sheds < reqs-2 {
		if _, ok := retryAfter(<-errs); !ok {
			t.Fatal("greedy client got a non-shed failure while over its per-conn budget")
		}
		sheds++
	}
	// With the greedy client pinned at its cap, a modest client is still
	// admitted: OpVideos bypasses the hold, and there is no global limit.
	modest, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modest.Do(context.Background(), OpVideos, 0, 0); err != nil {
		t.Fatalf("modest client shed while greedy was clipped: %v", err)
	}
	close(hold)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("greedy client's admitted request failed: %v", err)
		}
	}
	if got := greedy.Stats().Sheds; got != 2 {
		t.Errorf("greedy sheds = %d, want 2", got)
	}
	if got := modest.Stats().Sheds; got != 0 {
		t.Errorf("modest sheds = %d, want 0", got)
	}
}

// TestRetryPolicyHonorsShedHint pins the client side of admission: a shed
// response's hint acts as a floor on the retry backoff, and sheds burn
// the shed budget, not the transport-failure budget.
func TestRetryPolicyHonorsShedHint(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	// A nearly-zero refill rate: the manifest consumes the single token
	// and every later request sheds with an enormous hint.
	srv.Admission = AdmissionConfig{PerConnRate: 1e-6, PerConnBurst: 1}
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()

	client := NewClient(cconn)
	client.Retry = RetryPolicy{ShedRetries: 1, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1}
	var slept []time.Duration
	client.sleep = func(d time.Duration) { slept = append(slept, d) }
	if _, err := client.ManifestCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = client.SegmentCtx(context.Background(), 0)
	hint, ok := retryAfter(err)
	if !ok {
		t.Fatalf("want retry-after after shed budget exhausted, got %v", err)
	}
	if hint < time.Hour {
		t.Fatalf("rate hint = %v, expected the near-zero rate to produce a huge wait", hint)
	}
	// One shed retry was attempted, and its backoff was floored at the
	// server's hint rather than the policy's 1-2ms schedule.
	if len(slept) != 1 {
		t.Fatalf("client slept %d times, want exactly 1 shed backoff", len(slept))
	}
	if slept[0] < hint {
		t.Errorf("shed backoff %v below the server hint %v", slept[0], hint)
	}
	if client.Sheds != 2 {
		t.Errorf("client.Sheds = %d, want 2 (initial + one retry)", client.Sheds)
	}
	if client.Retries != 0 {
		t.Errorf("client.Retries = %d; sheds must not burn the transport budget", client.Retries)
	}
}

// TestMaxConnsRejectsTyped pins the connection cap: an over-capacity
// connection gets exactly one typed retry-after, then the server hangs up.
func TestMaxConnsRejectsTyped(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	srv.Admission = AdmissionConfig{MaxConns: 1, RetryAfter: 25 * time.Millisecond}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	first := dialTCP(t, ln.Addr().String())
	if _, err := first.ManifestCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	second := dialTCP(t, ln.Addr().String())
	_, err = second.ManifestCtx(context.Background())
	hint, ok := retryAfter(err)
	if !ok {
		t.Fatalf("over-capacity conn: want typed retry-after, got %v", err)
	}
	if hint != 25*time.Millisecond {
		t.Errorf("over-capacity hint = %v, want the configured 25ms", hint)
	}
	// The capped connection was closed after its one rejection…
	if _, err := second.ManifestCtx(context.Background()); err == nil {
		t.Error("second request on a rejected conn succeeded")
	}
	// …while the admitted connection keeps working.
	if _, err := first.SegmentCtx(context.Background(), 0); err != nil {
		t.Errorf("admitted conn broken by the rejection: %v", err)
	}
}

var errSentinel = errors.New("sentinel")

// retryAfter reports whether err is the server's StatusRetryAfter
// admission shed, with the backoff hint it carries.
func retryAfter(err error) (time.Duration, bool) {
	var se *statusError
	if errors.As(err, &se) && se.status == StatusRetryAfter {
		return se.hint, true
	}
	return 0, false
}

func TestIsRetryAfterOnOtherErrors(t *testing.T) {
	if _, ok := retryAfter(errSentinel); ok {
		t.Error("retryAfter matched a plain error")
	}
	if _, ok := retryAfter(&statusError{status: StatusNotFound}); ok {
		t.Error("retryAfter matched NotFound")
	}
	if IsNotFound(&statusError{status: StatusRetryAfter}) {
		t.Error("IsNotFound matched RetryAfter")
	}
}
