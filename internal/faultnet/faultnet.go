// Package faultnet injects deterministic, seedable network faults into
// any io.ReadWriter, so the delivery path can be tested (and benchmarked)
// against the failure modes a real CDN edge exhibits: lost responses,
// long-tail latency, truncated payloads, hard I/O errors, and requests
// lost or cut mid-frame before ever reaching the server.
//
// The unit of fault injection is the request/response exchange, not the
// byte: every Write on a wrapped connection is treated as one outbound
// request frame, and the Injector decides — deterministically, from a
// seeded PRNG, an explicit per-request Script, or a caller-supplied
// Decide hook — the fate of the response that follows. Reads between two
// Writes all belong to the same response and share its fault.
//
// One Injector may wrap many connections over its lifetime (the request
// index is global across wraps), which is what makes reconnect testing
// deterministic: a client that redials mid-session keeps consuming the
// same fault schedule on the fresh connection.
//
// Composition with the rest of the transport stack is by plain wrapping;
// both orders work, and the conventional one puts the throttler inside so
// injected faults apply to the already-shaped link:
//
//	inj := faultnet.New(faultnet.Config{Seed: 1, DropRate: 0.1})
//	conn := inj.Wrap(transport.NewThrottledConn(tcpConn, 64<<10))
//
// A request-side fault (KindDropRequest, KindTruncateRequest) closes the
// wrapped connection once the frame is lost, so a pipelined client whose
// reader is already parked in Read learns of it at once instead of
// waiting for a response that is never coming. A response-side fault
// applies from the next Read call on; a reader parked across the Write
// has its pending read answered first (for a transport response, the
// header), and the fault takes the rest. Close is forwarded to the
// wrapped connection when it supports it.
package faultnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindNone passes the response through untouched.
	KindNone Kind = iota
	// KindDrop loses the response: every read until the next request
	// fails with an error wrapping ErrInjected. The connection must be
	// considered broken (the response bytes are still in flight), which
	// is exactly how a real lost response manifests.
	KindDrop
	// KindDelay injects Config.Delay of extra latency before the first
	// read of the response, then passes it through.
	KindDelay
	// KindTruncate passes Config.TruncateAfter bytes of the response
	// through, then fails every further read.
	KindTruncate
	// KindError fails reads immediately with an injected I/O error,
	// without consuming the response.
	KindError
	// KindDropRequest loses the request before it reaches the server:
	// the write is swallowed (reported as successful — the bytes left
	// the client), the server never sees the frame, the wrapped
	// connection is closed, and every read until the next request fails
	// wrapping ErrInjected. Unlike KindDrop, the server performs no work
	// for the request.
	KindDropRequest
	// KindTruncateRequest forwards only Config.TruncateAfter bytes of
	// the request frame to the server, then closes the wrapped
	// connection and reports the write as successful; reads fail
	// wrapping ErrInjected. The close is what surfaces the partial frame
	// on the server (io.ErrUnexpectedEOF), exactly like a mid-frame
	// network cut.
	KindTruncateRequest
	numKinds int = iota
)

// String returns the stable lower-case name of the fault kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindTruncate:
		return "truncate"
	case KindError:
		return "error"
	case KindDropRequest:
		return "drop_request"
	case KindTruncateRequest:
		return "truncate_request"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is wrapped by every error a fault produces, so callers can
// distinguish injected faults from genuine transport failures in tests.
var ErrInjected = errors.New("faultnet: injected fault")

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Seed drives the fault PRNG; equal seeds over equal request
	// sequences reproduce identical fault schedules.
	Seed int64

	// DropRate, DelayRate, TruncateRate and ErrorRate are per-request
	// probabilities in [0,1], evaluated cumulatively in that order
	// against one uniform draw per request. The request-side kinds
	// (KindDropRequest, KindTruncateRequest) have no rate; reach them
	// through Script or Decide.
	DropRate     float64
	DelayRate    float64
	TruncateRate float64
	ErrorRate    float64

	// Delay is the latency injected by KindDelay faults (default 50ms).
	Delay time.Duration
	// TruncateAfter is how many response bytes a KindTruncate fault lets
	// through before erroring (default 3 — enough for a partial header).
	TruncateAfter int

	// Script pins specific global request indices (0-based, counted
	// across every wrapped connection) to a fault kind, overriding the
	// rates for those indices. Unlisted indices fall back to the rates.
	Script map[int]Kind

	// Decide, when set, replaces rates and Script entirely: it receives
	// the global request index and the request frame just written and
	// returns the fault for the response. It must be deterministic for
	// reproducible runs.
	Decide func(reqIndex int, frame []byte) Kind
}

// Injector owns the fault schedule. It is safe for concurrent use and
// may wrap any number of connections; see the package doc.
type Injector struct {
	cfg   Config
	sleep func(time.Duration) // test hook; time.Sleep by default

	mu       sync.Mutex
	rng      *rand.Rand
	requests int
	counts   [numKinds]int
}

// New returns an Injector for the given configuration.
func New(cfg Config) *Injector {
	if cfg.Delay <= 0 {
		cfg.Delay = 50 * time.Millisecond
	}
	if cfg.TruncateAfter <= 0 {
		cfg.TruncateAfter = 3
	}
	return &Injector{
		cfg:   cfg,
		sleep: time.Sleep,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Wrap returns conn with the injector's fault schedule applied.
func (in *Injector) Wrap(conn io.ReadWriter) *Conn {
	return &Conn{in: in, inner: conn}
}

// Requests returns how many request frames the injector has seen.
func (in *Injector) Requests() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.requests
}

// Counts returns how many faults of each kind were injected, keyed by
// the kind's String name ("none" counts untouched requests).
func (in *Injector) Counts() map[string]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	m := make(map[string]int, numKinds)
	for k, n := range in.counts {
		if n > 0 {
			m[Kind(k).String()] = n
		}
	}
	return m
}

// decide assigns a fault to the request frame just written.
func (in *Injector) decide(frame []byte) (int, Kind) {
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := in.requests
	in.requests++
	k, decided := KindNone, false
	if in.cfg.Decide != nil {
		k, decided = in.cfg.Decide(idx, frame), true
	} else if s, ok := in.cfg.Script[idx]; ok {
		k, decided = s, true
	}
	if !decided {
		c := in.cfg
		switch r := in.rng.Float64(); {
		case r < c.DropRate:
			k = KindDrop
		case r < c.DropRate+c.DelayRate:
			k = KindDelay
		case r < c.DropRate+c.DelayRate+c.TruncateRate:
			k = KindTruncate
		case r < c.DropRate+c.DelayRate+c.TruncateRate+c.ErrorRate:
			k = KindError
		}
	}
	if k < 0 || int(k) >= numKinds {
		k = KindNone
	}
	in.counts[k]++
	return idx, k
}

// Conn is a fault-injecting connection wrapper produced by Injector.Wrap.
// It is safe for one writer and one reader at a time, and its fault
// state is that of the last request written: with several requests in
// flight, a fault lands on whichever response is being read.
type Conn struct {
	in    *Injector
	inner io.ReadWriter

	mu        sync.Mutex
	reqIndex  int
	kind      Kind
	delayed   bool
	remaining int // truncate budget
}

// Write rolls the fault for this exchange, then passes the request
// frame through — in full, partially (KindTruncateRequest) or not at
// all (KindDropRequest). The fault is decided before the inner write so
// request-side faults can intercept the frame; a request whose inner
// write fails still consumes its schedule index.
func (c *Conn) Write(p []byte) (int, error) {
	idx, kind := c.in.decide(p)
	c.mu.Lock()
	c.reqIndex, c.kind = idx, kind
	c.delayed = false
	c.remaining = c.in.cfg.TruncateAfter
	c.mu.Unlock()
	switch kind {
	case KindDropRequest:
		// Swallowed: the bytes left the client, the server never sees them.
	case KindTruncateRequest:
		if _, err := c.inner.Write(p[:min(c.in.cfg.TruncateAfter, len(p))]); err != nil {
			return 0, err
		}
	default:
		return c.inner.Write(p)
	}
	//lint:allow errcheck the connection is cut on purpose; reads report the injected fault, not the close
	c.Close()
	return len(p), nil
}

// Read applies the pending response fault, passing through when none.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	kind, idx := c.kind, c.reqIndex
	switch kind {
	case KindDrop, KindError, KindDropRequest, KindTruncateRequest:
		c.mu.Unlock()
		return 0, c.fault(kind, idx)
	case KindDelay:
		first := !c.delayed
		c.delayed = true
		c.mu.Unlock()
		if first {
			c.in.sleep(c.in.cfg.Delay)
		}
		return c.read(p)
	case KindTruncate:
		if c.remaining <= 0 {
			c.mu.Unlock()
			return 0, c.fault(kind, idx)
		}
		limit := min(len(p), c.remaining)
		c.mu.Unlock()
		n, err := c.read(p[:limit])
		c.mu.Lock()
		c.remaining -= n
		c.mu.Unlock()
		return n, err
	}
	c.mu.Unlock()
	return c.read(p)
}

// read reads the wrapped connection. A read parked there when a
// request-side fault closed it reports that fault, not the bare close.
func (c *Conn) read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	if err != nil {
		c.mu.Lock()
		kind, idx := c.kind, c.reqIndex
		c.mu.Unlock()
		if kind == KindDropRequest || kind == KindTruncateRequest {
			err = c.fault(kind, idx)
		}
	}
	return n, err
}

// fault is the error a faulted read of request idx returns.
func (c *Conn) fault(kind Kind, idx int) error {
	switch kind {
	case KindDrop:
		return fmt.Errorf("faultnet: response to request %d dropped: %w", idx, ErrInjected)
	case KindError:
		return fmt.Errorf("faultnet: read error on request %d: %w", idx, ErrInjected)
	case KindDropRequest:
		return fmt.Errorf("faultnet: request %d dropped before the server: %w", idx, ErrInjected)
	case KindTruncateRequest:
		return fmt.Errorf("faultnet: request %d truncated after %d bytes: %w", idx, c.in.cfg.TruncateAfter, ErrInjected)
	}
	return fmt.Errorf("faultnet: response to request %d truncated after %d bytes: %w", idx, c.in.cfg.TruncateAfter, ErrInjected)
}

// Close forwards to the wrapped connection when it is an io.Closer, so a
// client that reconnects can release the faulty connection underneath.
func (c *Conn) Close() error {
	if cl, ok := c.inner.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
