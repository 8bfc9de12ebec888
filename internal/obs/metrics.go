package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Inc/Add are
// lock-free and allocation-free; a nil *Counter is a valid no-op
// receiver for every method.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// defaultBounds spans 1µs … ~16.8s in powers of two — suitable for the
// latency measurements the pipeline records (seconds as float64).
var defaultBounds = func() []float64 {
	b := make([]float64, 25)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram is a fixed-bound streaming histogram: observations update
// atomic bucket counts plus sum/min/max, from which Quantile estimates
// p50/p95/p99 without storing samples. Observe is lock-free,
// allocation-free and reads no clock; a nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket implied
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
	min     atomic.Uint64 // float64 bits, seeded +Inf
	max     atomic.Uint64 // float64 bits, seeded -Inf
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) by linear interpolation
// inside the bucket containing it; the overflow bucket reaches up to the
// running max. Returns 0 with no observations.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	top := math.Float64frombits(h.max.Load())
	rank := p * float64(total)
	cum := 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if cum+n >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := top
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*((rank-cum)/n)
		}
		cum += n
	}
	return top
}

// Stats summarizes the histogram for snapshots. Count is the +Inf
// bucket's cumulative count, so the two always agree in one summary.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	st := HistogramStats{Buckets: make([]int64, len(h.buckets))}
	for i := range h.buckets {
		st.Count += h.buckets[i].Load()
		st.Buckets[i] = st.Count
	}
	if st.Count == 0 {
		return st
	}
	st.Sum = h.Sum()
	st.Mean = st.Sum / float64(st.Count)
	st.Min = math.Float64frombits(h.min.Load())
	st.Max = math.Float64frombits(h.max.Load())
	st.P50 = h.Quantile(0.50)
	st.P95 = h.Quantile(0.95)
	st.P99 = h.Quantile(0.99)
	return st
}

// HistogramStats is the exported summary of one histogram's lifetime.
// Buckets holds the cumulative count at each bound of the default
// ladder (1 µs × 2^i), then at +Inf; a scraper takes a recent rate or
// quantile from the difference of two scrapes.
type HistogramStats struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Buckets []int64 `json:"buckets"`
}

// Registry holds named metrics. Metric handles are get-or-create and
// stable, so call sites may resolve once and hold the pointer. All
// methods are safe for concurrent use; a nil *Registry returns nil
// (no-op) handles.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default (latency)
// bounds, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(defaultBounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric, JSON-marshalable.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot copies the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return emptySnapshot()
	}
	s := emptySnapshot()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stats()
	}
	return s
}

// emptySnapshot returns a Snapshot with every map initialized, so a nil
// registry still yields a marshal-safe value.
func emptySnapshot() Snapshot {
	return Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
}

// Text renders the snapshot as sorted plain-text lines in a
// Prometheus-like exposition format: `name value` for counters and
// gauges; `name_count`, `name_sum`, `name_min/max`, `name_p50/p95/p99`
// for histograms, then their cumulative `name_bucket{le="<bound>"}`
// lines, the last `le="+Inf"` and equal to `name_count`.
func (s Snapshot) Text() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
		fmt.Fprintf(&b, "%s_sum %g\n", n, h.Sum)
		if h.Count > 0 {
			fmt.Fprintf(&b, "%s_min %g\n", n, h.Min)
			fmt.Fprintf(&b, "%s_max %g\n", n, h.Max)
			fmt.Fprintf(&b, "%s_p50 %g\n", n, h.P50)
			fmt.Fprintf(&b, "%s_p95 %g\n", n, h.P95)
			fmt.Fprintf(&b, "%s_p99 %g\n", n, h.P99)
		}
		for i, c := range h.Buckets {
			if i == len(h.Buckets)-1 {
				fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, c)
			} else {
				fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n", n, defaultBounds[i], c)
			}
		}
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() []byte {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // maps of scalars cannot fail to marshal
		return []byte("{}")
	}
	return data
}
