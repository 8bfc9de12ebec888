// Package atomicfield is a lint fixture for the typed-atomics analyzer:
// function-form sync/atomic calls on struct fields are flagged, while a
// typed atomic field, the function form on a local, and a suppressed
// call stay silent.
package atomicfield

import "sync/atomic"

// Counter keeps a plain integer shared through the function-form API
// (hits) and a typed atomic (misses).
type Counter struct {
	hits   int64
	flags  uint32
	misses atomic.Int64
}

// Inc updates the plain field atomically.
func (c *Counter) Inc() {
	atomic.AddInt64(&c.hits, 1) // want "atomic.AddInt64 on field c.hits: make the field a typed atomic \(atomic.Int64\)"
}

// Load reads it atomically.
func (c *Counter) Load() int64 {
	return atomic.LoadInt64(&c.hits) // want "atomic.LoadInt64 on field c.hits"
}

// SetFlag swaps a uint32 field.
func (c *Counter) SetFlag() bool {
	return atomic.CompareAndSwapUint32(&c.flags, 0, 1) // want "make the field a typed atomic \(atomic.Uint32\)"
}

// Miss goes through the typed atomic's method set: nothing to report.
func (c *Counter) Miss() int64 {
	return c.misses.Add(1)
}

// Local uses the function form on a local, which is not a shared field.
func Local() int64 {
	var n int64
	atomic.AddInt64(&n, 1)
	return atomic.LoadInt64(&n)
}

// Legacy keeps the function form with a recorded reason.
func (c *Counter) Legacy() {
	//lint:allow atomicfield fixture: the suppressed function-form call is the case under test
	atomic.StoreInt64(&c.hits, 0)
}
