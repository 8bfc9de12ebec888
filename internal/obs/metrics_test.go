// Tests for the metrics registry. The concurrency tests here and in
// trace_test.go are written to be meaningful under the race detector;
// the documented invocation is:
//
//	go test -race ./internal/obs/...
package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := r.Counter("reqs_total").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	if r.Counter("reqs_total") != c {
		t.Error("counter handle not stable across lookups")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000.0) // 1ms … 1s uniform
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-500.5) > 1e-6 {
		t.Errorf("sum = %g, want 500.5", h.Sum())
	}
	st := h.Stats()
	if st.Min != 0.001 || st.Max != 1.0 {
		t.Errorf("min/max = %g/%g", st.Min, st.Max)
	}
	// Bucketed estimates are coarse (power-of-two bounds); accept a
	// factor-of-two window around the exact quantile.
	checks := []struct {
		name       string
		got, exact float64
	}{{"p50", st.P50, 0.5}, {"p95", st.P95, 0.95}, {"p99", st.P99, 0.99}}
	for _, c := range checks {
		if c.got < c.exact/2 || c.got > c.exact*2 {
			t.Errorf("%s = %g, want within [%g, %g]", c.name, c.got, c.exact/2, c.exact*2)
		}
	}
	if st.P50 > st.P95 || st.P95 > st.P99 {
		t.Errorf("quantiles not monotone: %g %g %g", st.P50, st.P95, st.P99)
	}
	if len(st.Buckets) != len(defaultBounds)+1 || st.Buckets[len(st.Buckets)-1] != st.Count {
		t.Fatalf("buckets = %v, want %d cumulative counts ending at %d", st.Buckets, len(defaultBounds)+1, st.Count)
	}
	for i := 1; i < len(st.Buckets); i++ {
		if st.Buckets[i] < st.Buckets[i-1] {
			t.Errorf("buckets not cumulative at %d: %v", i, st.Buckets)
		}
	}
}

// TestQuantilePins pins the P50/P95/P99 a histogram reports for
// observations below, inside and past the last bucket bound; the
// overflow bucket interpolates up to the running max.
func TestQuantilePins(t *testing.T) {
	bounds := []float64{1, 10, 100}
	cases := []struct {
		name   string
		values []float64
		want   [3]float64 // P50, P95, P99
	}{
		{"below first bound", []float64{0.2, 0.4, 0.8},
			[3]float64{0.5, 0.9499999999999998, 0.9899999999999999}},
		{"mixed", []float64{0.5, 0.5, 3, 7, 20, 60, 80, 150, 400, 1200},
			[3]float64{40, 1016.6666666666667, 1163.3333333333335}},
		{"past last bound", []float64{150, 300},
			[3]float64{200, 290, 298}},
	}
	for _, c := range cases {
		h := newHistogram(bounds)
		for _, v := range c.values {
			h.Observe(v)
		}
		st := h.Stats()
		if got := [3]float64{st.P50, st.P95, st.P99}; got != c.want {
			t.Errorf("%s: P50/P95/P99 = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBucketDeltaQuantile checks what the exposition leaves to a
// scraper: the bucket differences between two snapshots hold only the
// observations between them, so their p99 follows a recent slow regime
// that the lifetime p99 hides under history.
func TestBucketDeltaQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fetch_seconds")
	for i := 0; i < 1000; i++ {
		h.Observe(0.001)
	}
	before := r.Snapshot().Histograms["fetch_seconds"]
	for i := 0; i < 5; i++ {
		h.Observe(3)
	}
	after := r.Snapshot().Histograms["fetch_seconds"]

	if after.P99 > defaultBounds[10] {
		t.Errorf("lifetime p99 = %g, want inside the fast era's bucket (≤ %g)", after.P99, defaultBounds[10])
	}
	if got := deltaQuantile(before.Buckets, after.Buckets, 0.99); got <= defaultBounds[21] || got > defaultBounds[22] {
		t.Errorf("p99 between the scrapes = %g, want inside the slow era's bucket (%g, %g]", got, defaultBounds[21], defaultBounds[22])
	}
}

// deltaQuantile interpolates the p-quantile of the observations between
// two snapshots' cumulative default-ladder buckets, as a scraper does.
func deltaQuantile(before, after []int64, p float64) float64 {
	rank := p * float64(after[len(after)-1]-before[len(before)-1])
	prev := 0.0
	for i := range defaultBounds {
		cum := float64(after[i] - before[i])
		if cum >= rank && cum > prev {
			lo := 0.0
			if i > 0 {
				lo = defaultBounds[i-1]
			}
			return lo + (defaultBounds[i]-lo)*(rank-prev)/(cum-prev)
		}
		prev = cum
	}
	return defaultBounds[len(defaultBounds)-1]
}

// TestRegistryConcurrent hammers one registry from many goroutines —
// handle creation, counter increments, gauge sets and histogram
// observations all racing — and asserts the exact totals. Run with
// `go test -race ./internal/obs/...` to verify memory safety.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h_seconds").Observe(float64(i%100) / 1e3)
				if i%100 == 0 { // racing get-or-create on fresh names
					r.Counter("c2_total").Add(2)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != goroutines*perG {
		t.Errorf("c_total = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("c2_total").Value(); got != goroutines*(perG/100)*2 {
		t.Errorf("c2_total = %d, want %d", got, goroutines*(perG/100)*2)
	}
	if got := r.Histogram("h_seconds").Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if b := r.Histogram("h_seconds").Stats().Buckets; b[len(b)-1] != goroutines*perG {
		t.Errorf("histogram +Inf bucket = %d, want %d", b[len(b)-1], goroutines*perG)
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache_hits_total").Add(3)
	r.Gauge("sessions").Set(2)
	r.Histogram("enhance_seconds").Observe(0.01)
	snap := r.Snapshot()
	text := snap.Text()
	for _, want := range []string{
		"cache_hits_total 3\n",
		"sessions 2\n",
		"enhance_seconds_count 1\n",
		"enhance_seconds_p99",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	var back Snapshot
	if err := json.Unmarshal(snap.JSON(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Counters["cache_hits_total"] != 3 {
		t.Errorf("JSON counters = %v", back.Counters)
	}
	if back.Histograms["enhance_seconds"].Count != 1 {
		t.Errorf("JSON histograms = %v", back.Histograms)
	}
}

// TestNopPathZeroAllocs asserts the disabled-observability contract:
// with a nil *Obs (and hence nil metric, span and logger handles) every
// per-event operation performs zero allocations.
func TestNopPathZeroAllocs(t *testing.T) {
	var o *Obs
	c := o.Counter("x_total")
	g := o.Gauge("x")
	h := o.Histogram("x_seconds")
	lg := o.Logger()
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		h.Observe(0.5)
		sp := o.Start("prepare")
		ch := sp.Child("stage")
		ch.Set("k", 1)
		ch.End()
		sp.End()
		lg.Info("event")
		lg.Debug("event")
	}); n != 0 {
		t.Errorf("no-op path allocates %v bytes/event, want 0", n)
	}
}

// TestLiveObserveZeroAllocs asserts the hot recording path (counter
// add + histogram observe on live handles) is also allocation-free.
func TestLiveObserveZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	h := r.Histogram("x_seconds")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(0.25)
	}); n != 0 {
		t.Errorf("live observe allocates %v bytes/event, want 0", n)
	}
}

// BenchmarkRecord times the per-event record path of a live counter and
// histogram; -benchmem shows it allocation-free.
func BenchmarkRecord(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h_seconds")
	b.Run("Counter.Inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("Histogram.Observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(0.003)
		}
	})
}
