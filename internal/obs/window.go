package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Windowed metrics answer the question lifetime metrics cannot: "what is
// the p99 / request rate *right now*?" A lifetime histogram's quantiles
// are frozen by history — a 30-second overload event is invisible inside
// a p99 computed since process start — so the fleet-scale serving
// metrics additionally record into a rolling window.
//
// The implementation is a fixed ring of sub-window slots, each covering
// window/windowSlots of wall time. Recording locates the current slot
// from the clock, lazily resets it when it has rotated into a new
// sub-window (a CAS elects one resetter; no locks, no allocation), and
// updates atomic counts. Snapshots aggregate every slot still inside the
// window. Observations racing a rotation may be attributed to either
// adjacent sub-window — windowed values are operational telemetry, not
// accounting, and the lifetime metrics remain exact.

// Default rolling-window geometry: 30 s of history in 3 s sub-windows,
// matched to the overload events the fleet-serving roadmap cares about.
const (
	DefaultWindow = 30 * time.Second
	windowSlots   = 10
)

// windowSlot is one sub-window of a rolling window. seq identifies which
// rotation the slot's contents belong to; a slot whose seq has fallen
// out of the window is expired (and is reset on its next use).
type windowSlot struct {
	seq     atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
	buckets []atomic.Int64
}

// rotate ensures the slot holds data for sub-window seq, electing one
// caller to clear stale contents. Allocation-free.
func (s *windowSlot) rotate(seq int64) {
	old := s.seq.Load()
	if old == seq {
		return
	}
	if !s.seq.CompareAndSwap(old, seq) {
		return // another recorder is resetting; record into its slot
	}
	s.count.Store(0)
	s.sum.Store(0)
	for i := range s.buckets {
		s.buckets[i].Store(0)
	}
}

// WindowedCounter counts events over a rolling time window, from which
// Stats derives an events-per-second rate. Inc/Add are lock-free and
// allocation-free; a nil *WindowedCounter is a no-op.
type WindowedCounter struct {
	slotDur int64 // nanoseconds per sub-window
	slots   []windowSlot
	clock   func() time.Time // test hook; nil means time.Now
}

func newWindowedCounter(window time.Duration) *WindowedCounter {
	if window <= 0 {
		window = DefaultWindow
	}
	return &WindowedCounter{
		slotDur: int64(window) / windowSlots,
		slots:   make([]windowSlot, windowSlots),
	}
}

func (c *WindowedCounter) now() int64 {
	if c.clock != nil {
		return c.clock().UnixNano()
	}
	return time.Now().UnixNano()
}

// Inc adds one to the current sub-window.
func (c *WindowedCounter) Inc() { c.Add(1) }

// Add increases the current sub-window's count by n.
func (c *WindowedCounter) Add(n int64) {
	if c == nil {
		return
	}
	seq := c.now() / c.slotDur
	s := &c.slots[int(seq%int64(len(c.slots)))]
	s.rotate(seq)
	s.count.Add(n)
}

// Window returns the rolling window's span.
func (c *WindowedCounter) Window() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.slotDur * int64(len(c.slots)))
}

// Stats aggregates the sub-windows still inside the rolling window.
func (c *WindowedCounter) Stats() WindowedCounterStats {
	if c == nil {
		return WindowedCounterStats{}
	}
	cur := c.now() / c.slotDur
	st := WindowedCounterStats{WindowSeconds: c.Window().Seconds()}
	for i := range c.slots {
		s := &c.slots[i]
		if seq := s.seq.Load(); seq > cur-int64(len(c.slots)) && seq <= cur {
			st.Count += s.count.Load()
		}
	}
	if st.WindowSeconds > 0 {
		st.RatePerSec = float64(st.Count) / st.WindowSeconds
	}
	return st
}

// WindowedCounterStats is the exported summary of one windowed counter.
type WindowedCounterStats struct {
	Count         int64   `json:"count"`
	RatePerSec    float64 `json:"rate_per_sec"`
	WindowSeconds float64 `json:"window_seconds"`
}

// WindowedHistogram is a streaming histogram over a rolling time window:
// same fixed bucket bounds as Histogram, but Stats reports quantiles,
// mean and rate computed from only the last Window of observations.
// Observe is lock-free and allocation-free; a nil *WindowedHistogram is
// a no-op.
type WindowedHistogram struct {
	bounds  []float64
	slotDur int64
	slots   []windowSlot
	clock   func() time.Time // test hook; nil means time.Now
}

func newWindowedHistogram(bounds []float64, window time.Duration) *WindowedHistogram {
	if window <= 0 {
		window = DefaultWindow
	}
	h := &WindowedHistogram{
		bounds:  bounds,
		slotDur: int64(window) / windowSlots,
		slots:   make([]windowSlot, windowSlots),
	}
	for i := range h.slots {
		h.slots[i].buckets = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

func (h *WindowedHistogram) now() int64 {
	if h.clock != nil {
		return h.clock().UnixNano()
	}
	return time.Now().UnixNano()
}

// Observe records one value into the current sub-window.
func (h *WindowedHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	seq := h.now() / h.slotDur
	s := &h.slots[int(seq%int64(len(h.slots)))]
	s.rotate(seq)
	s.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	s.count.Add(1)
	for {
		old := s.sum.Load()
		if s.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// Window returns the rolling window's span.
func (h *WindowedHistogram) Window() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.slotDur * int64(len(h.slots)))
}

// Stats aggregates the live sub-windows into count, sum, rate and
// interpolated quantiles (the same estimator as Histogram.Quantile,
// over the merged bucket counts).
func (h *WindowedHistogram) Stats() WindowedHistogramStats {
	if h == nil {
		return WindowedHistogramStats{}
	}
	cur := h.now() / h.slotDur
	st := WindowedHistogramStats{WindowSeconds: h.Window().Seconds()}
	merged := make([]int64, len(h.bounds)+1)
	for i := range h.slots {
		s := &h.slots[i]
		if seq := s.seq.Load(); seq > cur-int64(len(h.slots)) && seq <= cur {
			st.Count += s.count.Load()
			st.Sum += math.Float64frombits(s.sum.Load())
			for b := range s.buckets {
				merged[b] += s.buckets[b].Load()
			}
		}
	}
	if st.Count == 0 {
		return st
	}
	st.Mean = st.Sum / float64(st.Count)
	if st.WindowSeconds > 0 {
		st.RatePerSec = float64(st.Count) / st.WindowSeconds
	}
	// A window keeps no max: the overflow bucket ends at the last bound.
	top := 0.0
	if len(h.bounds) > 0 {
		top = h.bounds[len(h.bounds)-1]
	}
	st.P50 = bucketQuantile(h.bounds, merged, st.Count, 0.50, top)
	st.P95 = bucketQuantile(h.bounds, merged, st.Count, 0.95, top)
	st.P99 = bucketQuantile(h.bounds, merged, st.Count, 0.99, top)
	return st
}

// WindowedHistogramStats is the exported summary of one windowed
// histogram: the last WindowSeconds of observations only.
type WindowedHistogramStats struct {
	Count         int64   `json:"count"`
	Sum           float64 `json:"sum"`
	Mean          float64 `json:"mean"`
	RatePerSec    float64 `json:"rate_per_sec"`
	P50           float64 `json:"p50"`
	P95           float64 `json:"p95"`
	P99           float64 `json:"p99"`
	WindowSeconds float64 `json:"window_seconds"`
}
