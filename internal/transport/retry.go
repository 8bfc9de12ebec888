package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"time"

	"dcsr/internal/obs"
)

// RetryPolicy configures how a Client survives delivery failures: how
// long one request may take, how often it is retried, and how the
// retries back off. The zero value is the seed behaviour — no deadline,
// no retry, fail on the first I/O error.
//
// Only transport-level failures (write errors, read errors, timeouts,
// injected faults) are retried; protocol-level rejections (StatusNotFound,
// StatusBadReq) are deterministic and returned immediately. A failed
// connection is retired and the retry redials through Client.Redial;
// without a Redial hook, a lost connection is fatal.
//
// StatusRetryAfter — the server's admission shed — is a third class: the
// connection stays synchronized (no redial) and the rejection is
// retryable under its own ShedRetries budget, with the server's carried
// hint acting as a floor on the backoff so a shedding server is never
// hammered faster than it asked for.
type RetryPolicy struct {
	// MaxRetries is how many additional attempts follow a failed one.
	// 0 (default) disables retrying.
	MaxRetries int
	// ShedRetries is how many additional attempts follow a
	// StatusRetryAfter shed, each backing off by at least the server's
	// hint. 0 (default) falls back to MaxRetries, so a retry-configured
	// client honors sheds without extra configuration.
	ShedRetries int
	// BaseDelay is the backoff before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
	// Jitter randomizes that fraction of each backoff (default 0.2;
	// negative disables jitter entirely). Jitter draws come from a PRNG
	// seeded with Seed, so schedules are reproducible.
	Jitter float64
	// Timeout bounds one request/response exchange as a context deadline,
	// on any connection (0 = none). An expired request keeps its
	// connection if responses are still arriving on it and retires it as
	// stalled if not (see Client).
	Timeout time.Duration
	// Seed seeds the jitter PRNG.
	Seed int64
}

// withDefaults fills the documented defaults for enabled retrying.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.ShedRetries < 0 {
		p.ShedRetries = 0
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 0
		if p.ShedRetries == 0 {
			return p
		}
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	switch {
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter == 0:
		p.Jitter = 0.2
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// backoff returns the sleep before retry number attempt (0-based):
// BaseDelay·2^attempt capped at MaxDelay, with the Jitter
// fraction redrawn uniformly so synchronized clients spread out.
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseDelay) * math.Pow(2, float64(attempt))
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		d = d*(1-p.Jitter) + rng.Float64()*d*p.Jitter
	}
	return time.Duration(d)
}

// shedBudget is the effective retry budget for admission sheds:
// ShedRetries when set, otherwise MaxRetries.
func (p RetryPolicy) shedBudget() int {
	if p.ShedRetries > 0 {
		return p.ShedRetries
	}
	return p.MaxRetries
}

// statusError is a protocol-level failure: the response arrived intact
// but carried a non-OK status. The connection stays synchronized and the
// outcome is deterministic, so a statusError is never retried through the
// transport path — with one exception: StatusRetryAfter carries the
// server's backoff hint and is retried under RetryPolicy.ShedRetries.
type statusError struct {
	op     byte
	arg    uint32
	status byte
	// hint is the server's retry-after backoff hint; nonzero only for
	// StatusRetryAfter.
	hint time.Duration
}

func (e *statusError) Error() string {
	switch e.status {
	case StatusNotFound:
		return fmt.Sprintf("transport: op %d arg %d: not found", e.op, e.arg)
	case StatusRetryAfter:
		return fmt.Sprintf("transport: op %d arg %d: shed, retry after %v", e.op, e.arg, e.hint)
	}
	return fmt.Sprintf("transport: op %d arg %d: status %d", e.op, e.arg, e.status)
}

// IsNotFound reports whether err is the server's StatusNotFound reply —
// the one failure that is semantic (the artifact does not exist) rather
// than transport-level.
func IsNotFound(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.status == StatusNotFound
}

// isTimeoutErr classifies deadline expiries for the timeout metric.
func isTimeoutErr(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// request is one wire request: the opcode, its argument, and the hosted
// video it is routed at.
type request struct {
	op         byte
	arg, video uint32
}

// frame is rq as it goes on the wire: tagged with the client's request ID
// and carrying the attempt span's identity (asp may be nil: untraced), so
// the server span becomes that attempt's child.
func (rq request) frame(id uint32, attempt int, asp *obs.Span) wireRequest {
	return wireRequest{Op: rq.op, Arg: rq.arg, Video: rq.video, ID: id,
		TC: TraceContext{TraceID: asp.TraceID(), SpanID: asp.SpanID(), Attempt: uint8(attempt)}}
}

// do drives one request through the retry state machine: exchange,
// classify the failure, back off, try again — up to Retry.MaxRetries
// extra attempts for transport failures (the next exchange redials) and
// Retry.ShedRetries for admission sheds (which keep the connection and
// back off by at least the server's hint); any other rejection is
// deterministic and returned at once. Cancellation is attempt-granular:
// ctx is checked before each attempt and interrupts backoff sleeps
// immediately; each exchange runs under ctx narrowed by Retry.Timeout, so
// an expiring context or timeout cuts short even an in-flight request.
// Each attempt gets its own numbered child span under the span ctx
// carries (obs.WithSpan), so retries are distinguishable in a trace.
func (c *Client) do(ctx context.Context, rq request) ([]byte, error) {
	pol, o := c.Retry.withDefaults(), c.Obs
	parent := obs.SpanFrom(ctx)
	fails, sheds := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		xctx, cancel := ctx, context.CancelFunc(func() {})
		if pol.Timeout > 0 {
			xctx, cancel = context.WithTimeout(ctx, pol.Timeout)
		}
		var asp *obs.Span
		if parent != nil {
			asp = parent.Child("attempt")
			asp.Set("op", opName(rq.op))
			asp.Set("attempt", fails+sheds)
		}
		payload, err := c.exchange(xctx, rq, fails+sheds, asp)
		cancel()
		if err == nil {
			asp.Set("outcome", "ok")
			asp.End()
			return payload, nil
		}
		// Transport failures draw on MaxRetries (the next exchange
		// redials); sheds keep the connection, draw on their own budget and
		// back off by at least the server's hint; any other status is final.
		outcome, n, budget, floor := "error", &fails, pol.MaxRetries, time.Duration(0)
		var se *statusError
		shed := errors.As(err, &se) && se.status == StatusRetryAfter
		if shed {
			outcome, n, budget, floor = "shed", &sheds, pol.shedBudget(), se.hint
		} else if se != nil {
			outcome, budget = "rejected", 0 // deterministic; never retried
		}
		asp.Set("outcome", outcome)
		asp.Set("error", err.Error())
		asp.End()
		var d time.Duration
		c.statsMu.Lock()
		if shed {
			c.Sheds++
			o.Counter("transport_client_shed_total").Inc()
		} else if isTimeoutErr(err) {
			c.Timeouts++
			o.Counter("transport_client_timeouts_total").Inc()
		}
		retry := ctx.Err() == nil && *n < budget
		if retry {
			if c.rng == nil {
				c.rng = rand.New(rand.NewSource(pol.Seed))
			}
			if d = pol.backoff(*n, c.rng); d < floor {
				d = floor
			}
			if !shed {
				c.Retries++
				o.Counter("transport_client_retries_total").Inc()
			}
			c.StallTime += d
		}
		c.statsMu.Unlock()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !retry {
			return nil, err
		}
		*n++
		c.Obs.Logger().Warn("transport: retrying request", "op", opName(rq.op), "arg", rq.arg,
			"attempt", fails+sheds, "backoff", d, "err", err)
		if c.sleep != nil {
			c.sleep(d) // test hook: instantaneous
		} else if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
	}
}

// sleepCtx blocks for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
