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
// histogram, rolling window included (the window's clock read is most
// of it); -benchmem shows it allocation-free.
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
