// Tests for the rolling-window metrics. Rotation is driven by an
// injected fake clock so expiry behaviour is fully deterministic (no
// wall-clock sleeps), which also keeps the nodeterm lint contract easy
// to reason about: the production path reads time.Now only through the
// unexported clock hook.
package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for window tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func TestWindowedCounterRotationDeterminism(t *testing.T) {
	clk := newFakeClock()
	c := newWindowedCounter(10 * time.Second) // 1s sub-windows
	c.clock = clk.now

	c.Add(5)
	if st := c.Stats(); st.Count != 5 {
		t.Fatalf("fresh count = %d, want 5", st.Count)
	}

	// Half-way through the window the events are still visible.
	clk.advance(5 * time.Second)
	c.Inc()
	if st := c.Stats(); st.Count != 6 {
		t.Fatalf("mid-window count = %d, want 6", st.Count)
	}

	// Advance so only the second burst survives: the first burst is
	// now 10.5s old (outside), the second 5.5s old (inside).
	clk.advance(5500 * time.Millisecond)
	if st := c.Stats(); st.Count != 1 {
		t.Fatalf("post-expiry count = %d, want 1", st.Count)
	}

	// A full window later everything has aged out.
	clk.advance(10 * time.Second)
	st := c.Stats()
	if st.Count != 0 || st.RatePerSec != 0 {
		t.Fatalf("drained window = %+v, want zero", st)
	}
	if st.WindowSeconds != 10 {
		t.Fatalf("window seconds = %g, want 10", st.WindowSeconds)
	}
}

func TestWindowedCounterSlotReuse(t *testing.T) {
	clk := newFakeClock()
	c := newWindowedCounter(10 * time.Second)
	c.clock = clk.now

	// Write into the same physical slot across two rotations: the
	// second write must see a cleared slot, not accumulate onto the
	// first (windowSlots sub-windows later the ring index repeats).
	c.Add(7)
	clk.advance(10 * time.Second) // exactly windowSlots sub-windows
	c.Add(2)
	if st := c.Stats(); st.Count != 2 {
		t.Fatalf("count after slot reuse = %d, want 2", st.Count)
	}
}

func TestWindowedCounterRate(t *testing.T) {
	clk := newFakeClock()
	c := newWindowedCounter(10 * time.Second)
	c.clock = clk.now
	for i := 0; i < 40; i++ {
		c.Inc()
		clk.advance(250 * time.Millisecond)
	}
	// Reading at t=10s, the first 1s sub-window (4 events) has rolled
	// off; the remaining 36 events over 10s give 3.6/s.
	st := c.Stats()
	if st.Count != 36 {
		t.Fatalf("count = %d, want 36", st.Count)
	}
	if math.Abs(st.RatePerSec-3.6) > 1e-9 {
		t.Fatalf("rate = %g, want 3.6", st.RatePerSec)
	}
}

func TestWindowedHistogramStats(t *testing.T) {
	clk := newFakeClock()
	h := newWindowedHistogram(defaultBounds, 10*time.Second)
	h.clock = clk.now

	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000.0)
	}
	st := h.Stats()
	if st.Count != 1000 {
		t.Fatalf("count = %d, want 1000", st.Count)
	}
	if math.Abs(st.Sum-500.5) > 1e-6 {
		t.Fatalf("sum = %g, want 500.5", st.Sum)
	}
	if math.Abs(st.Mean-0.5005) > 1e-6 {
		t.Fatalf("mean = %g", st.Mean)
	}
	// Same coarse power-of-two bucket tolerance as the lifetime
	// histogram tests.
	checks := []struct {
		name       string
		got, exact float64
	}{{"p50", st.P50, 0.5}, {"p95", st.P95, 0.95}, {"p99", st.P99, 0.99}}
	for _, c := range checks {
		if c.got < c.exact/2 || c.got > c.exact*2 {
			t.Errorf("%s = %g, want within [%g, %g]", c.name, c.got, c.exact/2, c.exact*2)
		}
	}

	// Unlike the lifetime histogram, the windowed view forgets: after a
	// full window of silence the quantiles reset.
	clk.advance(11 * time.Second)
	if st := h.Stats(); st.Count != 0 || st.P99 != 0 {
		t.Fatalf("expired stats = %+v, want empty", st)
	}
}

func TestWindowedHistogramPartialExpiry(t *testing.T) {
	clk := newFakeClock()
	h := newWindowedHistogram(defaultBounds, 10*time.Second)
	h.clock = clk.now

	h.Observe(0.001) // fast era
	clk.advance(8 * time.Second)
	h.Observe(4.0) // slow era
	clk.advance(3 * time.Second)

	// The fast observation (11s old) is out; the slow one (3s) remains,
	// so the windowed p99 reflects only the recent regime.
	st := h.Stats()
	if st.Count != 1 {
		t.Fatalf("count = %d, want 1", st.Count)
	}
	if st.P99 < 1.0 {
		t.Fatalf("p99 = %g, want dominated by the slow observation", st.P99)
	}
}

// TestWindowedRecordZeroAllocs pins the hot record path — the property
// BenchmarkObsOverhead measures — as a hard test: recording into live
// windowed handles must not allocate.
func TestWindowedRecordZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.WindowedCounter("x_window_total")
	h := r.WindowedHistogram("x_window_seconds")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(0.25)
	}); n != 0 {
		t.Errorf("windowed record path allocates %v bytes/event, want 0", n)
	}
}

func TestWindowedNilSafety(t *testing.T) {
	var c *WindowedCounter
	var h *WindowedHistogram
	var o *Obs
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(5)
		h.Observe(1.0)
		o.WindowedCounter("x_window_total").Inc()
		o.WindowedHistogram("x_window_seconds").Observe(1.0)
	}); n != 0 {
		t.Errorf("nil windowed path allocates %v bytes/event, want 0", n)
	}
	if st := c.Stats(); st != (WindowedCounterStats{}) {
		t.Errorf("nil counter stats = %+v", st)
	}
	if st := h.Stats(); st != (WindowedHistogramStats{}) {
		t.Errorf("nil histogram stats = %+v", st)
	}
	if c.Window() != 0 || h.Window() != 0 {
		t.Error("nil Window() should be 0")
	}
}

func TestWindowedHandleStability(t *testing.T) {
	r := NewRegistry()
	if r.WindowedCounter("a_window_total") != r.WindowedCounter("a_window_total") {
		t.Error("windowed counter handle not stable across lookups")
	}
	if r.WindowedHistogram("a_window_seconds") != r.WindowedHistogram("a_window_seconds") {
		t.Error("windowed histogram handle not stable across lookups")
	}
	var nilReg *Registry
	if nilReg.WindowedCounter("x") != nil || nilReg.WindowedHistogram("x") != nil {
		t.Error("nil registry should hand out nil windowed handles")
	}
}

func TestWindowedSnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.WindowedCounter("req_window_total").Add(3)
	r.WindowedHistogram("lat_window_seconds").Observe(0.5)

	snap := r.Snapshot()
	if snap.WindowedCounters["req_window_total"].Count != 3 {
		t.Errorf("snapshot windowed counters = %+v", snap.WindowedCounters)
	}
	if snap.WindowedHistograms["lat_window_seconds"].Count != 1 {
		t.Errorf("snapshot windowed histograms = %+v", snap.WindowedHistograms)
	}

	text := snap.Text()
	for _, want := range []string{"req_window_total 3", "req_window_total_rate", "lat_window_seconds_count 1", "lat_window_seconds_p99"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}

	var back Snapshot
	if err := json.Unmarshal(snap.JSON(), &back); err != nil {
		t.Fatalf("snapshot JSON round-trip: %v", err)
	}
	if back.WindowedCounters["req_window_total"].Count != 3 {
		t.Errorf("JSON windowed counters = %+v", back.WindowedCounters)
	}
	if back.WindowedHistograms["lat_window_seconds"].P99 <= 0 {
		t.Errorf("JSON windowed histogram p99 = %+v", back.WindowedHistograms)
	}
}

func TestWindowedConcurrent(t *testing.T) {
	// Meaningful under -race: concurrent recorders across a rotation
	// boundary must not trip the detector or corrupt totals beyond the
	// documented adjacent-sub-window tolerance.
	r := NewRegistry()
	c := r.WindowedCounter("c_window_total")
	h := r.WindowedHistogram("h_window_seconds")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	// All recording happened well inside one window span.
	if got := c.Stats().Count; got != 16000 {
		t.Errorf("concurrent windowed count = %d, want 16000", got)
	}
	if got := h.Stats().Count; got != 16000 {
		t.Errorf("concurrent windowed histogram count = %d, want 16000", got)
	}
}

// TestQuantilePins pins the P50/P95/P99 both histogram kinds report
// for observations below, inside and past the last bucket bound. The
// two differ only in the overflow bucket: a Histogram interpolates up
// to its running max, a WindowedHistogram (which keeps no max) reports
// the last finite bound.
func TestQuantilePins(t *testing.T) {
	bounds := []float64{1, 10, 100}
	cases := []struct {
		name             string
		values           []float64
		lifetime, window [3]float64 // P50, P95, P99
	}{
		{"below first bound", []float64{0.2, 0.4, 0.8},
			[3]float64{0.5, 0.9499999999999998, 0.9899999999999999},
			[3]float64{0.5, 0.9499999999999998, 0.9899999999999999}},
		{"mixed", []float64{0.5, 0.5, 3, 7, 20, 60, 80, 150, 400, 1200},
			[3]float64{40, 1016.6666666666667, 1163.3333333333335},
			[3]float64{40, 100, 100}},
		{"past last bound", []float64{150, 300},
			[3]float64{200, 290, 298},
			[3]float64{100, 100, 100}},
	}
	for _, c := range cases {
		h := newHistogram(bounds)
		clk := newFakeClock()
		w := newWindowedHistogram(bounds, 10*time.Second)
		w.clock = clk.now
		for _, v := range c.values {
			h.Observe(v)
			w.Observe(v)
		}
		hs, ws := h.Stats(), w.Stats()
		if got := [3]float64{hs.P50, hs.P95, hs.P99}; got != c.lifetime {
			t.Errorf("%s: Histogram P50/P95/P99 = %v, want %v", c.name, got, c.lifetime)
		}
		if got := [3]float64{ws.P50, ws.P95, ws.P99}; got != c.window {
			t.Errorf("%s: WindowedHistogram P50/P95/P99 = %v, want %v", c.name, got, c.window)
		}
	}
}
