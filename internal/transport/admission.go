package transport

import (
	"sync"
	"time"
)

// AdmissionConfig bounds what a Server will accept before it starts
// shedding load with StatusRetryAfter. The zero value admits everything —
// every limit is opt-in — so existing single-video deployments are
// unchanged until an operator sets a budget. docs/SERVING.md walks
// through tuning these knobs from measured swarm numbers.
type AdmissionConfig struct {
	// MaxInflight caps requests being served concurrently across all
	// connections; 0 means unlimited. This is the server's global
	// concurrency budget — the knob behind dcsr-serve -max-inflight.
	MaxInflight int
	// MaxPerConn caps requests in flight on one connection (only a
	// pipelining client can exceed 1); 0 means unlimited. This is
	// the fairness knob: a greedy client that pipelines hundreds of
	// requests is clipped to MaxPerConn slots while modest clients keep
	// being admitted.
	MaxPerConn int
	// MaxConns caps concurrent connections; 0 means unlimited. A
	// connection over the cap is still accepted, but its first request is
	// answered with StatusRetryAfter and the connection is closed — a
	// typed rejection, not a silent RST. The knob behind dcsr-serve
	// -max-clients.
	MaxConns int
	// PerConnRate refills each connection's token bucket at this many
	// requests per second; 0 disables rate limiting. Each request costs
	// one token; an empty bucket sheds with a hint telling the client
	// exactly how long until the next token.
	PerConnRate float64
	// PerConnBurst is the bucket capacity (and initial fill); it defaults
	// to max(1, PerConnRate) when 0 and PerConnRate is set.
	PerConnBurst float64
	// RetryAfter is the backoff hint carried by concurrency-limit sheds
	// (rate-limit sheds compute their own from the refill rate). Defaults
	// to 50ms.
	RetryAfter time.Duration
}

// withDefaults fills the derived defaults documented on the fields.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	if c.PerConnBurst <= 0 && c.PerConnRate > 0 {
		c.PerConnBurst = c.PerConnRate
		if c.PerConnBurst < 1 {
			c.PerConnBurst = 1
		}
	}
	return c
}

// limited reports whether any request-level limit is configured (MaxConns
// is enforced at accept time, not per request).
func (c AdmissionConfig) limited() bool {
	return c.MaxInflight > 0 || c.MaxPerConn > 0 || c.PerConnRate > 0
}

// admission is the server-wide admission state: the global inflight
// count shared by every connection's gate, and its peak.
type admission struct {
	cfg AdmissionConfig

	mu       sync.Mutex // taken after a connGate.mu, never the reverse
	inflight int
	peak     int
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{cfg: cfg.withDefaults()}
}

// gate returns the per-connection admission gate. now is the token
// bucket's clock (a test seam; nil means time.Now).
func (a *admission) gate(now func() time.Time) *connGate {
	if now == nil {
		now = time.Now
	}
	g := &connGate{adm: a, now: now, tokens: a.cfg.PerConnBurst}
	g.last = now()
	return g
}

// connGate is one connection's view of admission: its token bucket and
// inflight count, backed by the shared admission state.
type connGate struct {
	adm *admission
	now func() time.Time

	mu       sync.Mutex // taken before adm.mu, never the reverse
	inflight int
	tokens   float64
	last     time.Time
}

// admit decides one request. When admitted it returns a release function
// that must be called exactly once when the request finishes; when shed
// it returns the backoff hint to send with StatusRetryAfter. The lock
// order is gate before shared state, consistently, and release re-takes
// them in the same order.
func (g *connGate) admit() (release func(), hint time.Duration, ok bool) {
	a := g.adm
	if !a.cfg.limited() {
		return func() {}, 0, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if a.cfg.MaxPerConn > 0 && g.inflight >= a.cfg.MaxPerConn {
		return nil, a.cfg.RetryAfter, false
	}
	if a.cfg.PerConnRate > 0 {
		now := g.now()
		g.tokens += now.Sub(g.last).Seconds() * a.cfg.PerConnRate
		g.last = now
		if g.tokens > a.cfg.PerConnBurst {
			g.tokens = a.cfg.PerConnBurst
		}
		if g.tokens < 1 {
			// Tell the client exactly how long until the bucket holds a
			// whole token again.
			wait := time.Duration((1 - g.tokens) / a.cfg.PerConnRate * float64(time.Second))
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			return nil, wait, false
		}
	}
	a.mu.Lock()
	if a.cfg.MaxInflight > 0 && a.inflight >= a.cfg.MaxInflight {
		a.mu.Unlock()
		return nil, a.cfg.RetryAfter, false
	}
	a.inflight++
	if a.inflight > a.peak {
		a.peak = a.inflight
	}
	a.mu.Unlock()
	if a.cfg.PerConnRate > 0 {
		g.tokens--
	}
	g.inflight++
	return func() {
		g.mu.Lock()
		g.inflight--
		g.mu.Unlock()
		a.mu.Lock()
		a.inflight--
		a.mu.Unlock()
	}, 0, true
}

// snapshot returns the current and peak global inflight counts, for the
// transport_inflight / transport_inflight_peak gauges.
func (a *admission) snapshot() (inflight, peak int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, a.peak
}
