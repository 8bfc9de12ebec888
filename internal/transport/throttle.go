package transport

import (
	"io"
	"sync"
	"time"
)

// ThrottledConn wraps a connection (or any ReadWriter) with a token-bucket
// rate limit on reads, emulating a constrained downlink. Writes (requests)
// pass through unthrottled — request frames are 34 bytes and real uplinks
// are not the bottleneck dcSR addresses.
type ThrottledConn struct {
	inner io.ReadWriter

	mu        sync.Mutex
	bytesPerS float64
	bucket    float64
	burst     float64
	last      time.Time
	sleeper   func(time.Duration)
	clock     func() time.Time
}

// NewThrottledConn limits reads to bytesPerSecond with a burst of one
// bucket (¼ second of budget, at least 1 KiB).
func NewThrottledConn(inner io.ReadWriter, bytesPerSecond float64) *ThrottledConn {
	burst := bytesPerSecond / 4
	if burst < 1024 {
		burst = 1024
	}
	return &ThrottledConn{
		inner:     inner,
		bytesPerS: bytesPerSecond,
		bucket:    burst,
		burst:     burst,
		last:      time.Now(),
		sleeper:   time.Sleep,
		clock:     time.Now,
	}
}

// refill adds tokens for the elapsed time. Caller holds the lock.
func (t *ThrottledConn) refill() {
	now := t.clock()
	t.bucket += now.Sub(t.last).Seconds() * t.bytesPerS
	if t.bucket > t.burst {
		t.bucket = t.burst
	}
	t.last = now
}

// Read blocks until the bucket covers the bytes actually read.
func (t *ThrottledConn) Read(p []byte) (int, error) {
	n, err := t.inner.Read(p)
	if n > 0 {
		t.mu.Lock()
		t.refill()
		t.bucket -= float64(n)
		deficit := -t.bucket
		rate := t.bytesPerS
		t.mu.Unlock()
		if deficit > 0 && rate > 0 {
			t.sleeper(time.Duration(deficit / rate * float64(time.Second)))
		}
	}
	return n, err
}

// Write passes through to the inner connection.
func (t *ThrottledConn) Write(p []byte) (int, error) { return t.inner.Write(p) }

// Close forwards to the inner connection when it is an io.Closer, so a
// reconnecting client can release the throttled link underneath.
func (t *ThrottledConn) Close() error {
	if cl, ok := t.inner.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
