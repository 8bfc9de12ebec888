// Tests for the rolling window every Counter and Histogram keeps.
// Rotation is driven by an injected fake clock so expiry behaviour is
// fully deterministic (no wall-clock sleeps): the production path reads
// time.Now only through the unexported clock hook.
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

// newFakeClock starts on a sub-window boundary (1 700 000 001 s is a
// multiple of 3 s).
func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_001, 0)} }

// fakeCounter and fakeHistogram return handles whose window reads clk.
func fakeCounter(clk *fakeClock) *Counter {
	c := &Counter{}
	c.w.clock = clk.now
	return c
}

func fakeHistogram(clk *fakeClock, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	h.w.clock = clk.now
	return h
}

func TestWindowedCounterRotationDeterminism(t *testing.T) {
	clk := newFakeClock()
	c := fakeCounter(clk) // 30 s window, 3 s sub-windows

	c.Add(5)
	if got := c.Rate() * Window.Seconds(); got != 5 {
		t.Fatalf("fresh window count = %g, want 5", got)
	}

	// Half-way through the window the events are still visible.
	clk.advance(15 * time.Second)
	c.Inc()
	if got := c.Rate() * Window.Seconds(); got != 6 {
		t.Fatalf("mid-window count = %g, want 6", got)
	}

	// Advance so only the second burst survives: the first burst is
	// now 31.5 s old (outside), the second 16.5 s old (inside).
	clk.advance(16500 * time.Millisecond)
	if got := c.Rate() * Window.Seconds(); got != 1 {
		t.Fatalf("post-expiry count = %g, want 1", got)
	}

	// A full window later everything has aged out; the lifetime value
	// has not.
	clk.advance(30 * time.Second)
	if got := c.Rate(); got != 0 {
		t.Fatalf("drained window rate = %g, want 0", got)
	}
	if got := c.Value(); got != 6 {
		t.Fatalf("lifetime value = %d, want 6", got)
	}
}

func TestWindowedCounterSlotReuse(t *testing.T) {
	clk := newFakeClock()
	c := fakeCounter(clk)

	// Write into the same physical slot across two rotations: the
	// second write must see a cleared slot, not accumulate onto the
	// first (windowSlots sub-windows later the ring index repeats).
	c.Add(7)
	clk.advance(Window) // exactly windowSlots sub-windows
	c.Add(2)
	if got := c.Rate() * Window.Seconds(); got != 2 {
		t.Fatalf("window count after slot reuse = %g, want 2", got)
	}
}

func TestWindowedCounterRate(t *testing.T) {
	clk := newFakeClock()
	c := fakeCounter(clk)
	for i := 0; i < 40; i++ {
		c.Inc()
		clk.advance(750 * time.Millisecond)
	}
	// Reading at t=30s, the first 3 s sub-window (4 events) has rolled
	// off; the remaining 36 events over 30 s give 1.2/s.
	if got := c.Rate(); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("rate = %g, want 1.2", got)
	}
}

func TestWindowedHistogramStats(t *testing.T) {
	clk := newFakeClock()
	h := fakeHistogram(clk, defaultBounds)

	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000.0)
	}
	st := h.Stats()
	if st.WindowCount != 1000 {
		t.Fatalf("window count = %d, want 1000", st.WindowCount)
	}
	if math.Abs(st.Rate-1000/Window.Seconds()) > 1e-9 {
		t.Fatalf("rate = %g", st.Rate)
	}
	// Same coarse power-of-two bucket tolerance as the lifetime
	// histogram tests.
	checks := []struct {
		name       string
		got, exact float64
	}{{"p50", st.WindowP50, 0.5}, {"p95", st.WindowP95, 0.95}, {"p99", st.WindowP99, 0.99}}
	for _, c := range checks {
		if c.got < c.exact/2 || c.got > c.exact*2 {
			t.Errorf("window %s = %g, want within [%g, %g]", c.name, c.got, c.exact/2, c.exact*2)
		}
	}

	// Unlike the lifetime values, the window forgets: after a full
	// window of silence its quantiles reset.
	clk.advance(33 * time.Second)
	st = h.Stats()
	if st.WindowCount != 0 || st.Rate != 0 || st.WindowP99 != 0 {
		t.Fatalf("expired window = %+v, want empty", st)
	}
	if st.Count != 1000 || st.P99 == 0 {
		t.Fatalf("lifetime values after expiry = %+v", st)
	}
}

func TestWindowedHistogramPartialExpiry(t *testing.T) {
	clk := newFakeClock()
	h := fakeHistogram(clk, defaultBounds)

	h.Observe(0.001) // fast era
	clk.advance(24 * time.Second)
	h.Observe(4.0) // slow era
	clk.advance(9 * time.Second)

	// The fast observation (33 s old) is out; the slow one (9 s)
	// remains, so the window p99 reflects only the recent regime.
	st := h.Stats()
	if st.WindowCount != 1 {
		t.Fatalf("window count = %d, want 1", st.WindowCount)
	}
	if st.WindowP99 < 1.0 {
		t.Fatalf("window p99 = %g, want dominated by the slow observation", st.WindowP99)
	}
	if st.Count != 2 {
		t.Fatalf("lifetime count = %d, want 2", st.Count)
	}
}

// TestWindowedRecordZeroAllocs pins the hot record path as a hard test:
// recording must not allocate, on a sub-window rotation (which resets a
// slot) as between them.
func TestWindowedRecordZeroAllocs(t *testing.T) {
	clk := newFakeClock()
	c := fakeCounter(clk)
	h := fakeHistogram(clk, defaultBounds)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(0.25)
		clk.advance(time.Second)
	}); n != 0 {
		t.Errorf("record path allocates %v bytes/event, want 0", n)
	}
}

// TestWindowedNilSafety checks a nil handle's window values read zero
// without allocating.
func TestWindowedNilSafety(t *testing.T) {
	var c *Counter
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(1.0)
		_ = c.Rate()
		_ = h.Stats()
	}); n != 0 {
		t.Errorf("nil window path allocates %v bytes/event, want 0", n)
	}
	if c.Rate() != 0 || h.Stats() != (HistogramStats{}) {
		t.Error("nil handles must report an empty window")
	}
}

// TestWindowedHandleStability checks one handle carries both views: the
// registry hands out the same Counter and Histogram on every lookup, so
// a recording through one lookup shows in the other's window.
func TestWindowedHandleStability(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Histogram("a_seconds").Observe(0.5)
	if got := r.Counter("a_total").Rate(); got != rate(3) {
		t.Errorf("counter rate through a second lookup = %g, want %g", got, rate(3))
	}
	if got := r.Histogram("a_seconds").Stats().WindowCount; got != 1 {
		t.Errorf("histogram window count through a second lookup = %d, want 1", got)
	}
}

// TestWindowedSnapshotTextAndJSON checks the exposition's window lines
// and fields empty once the window has passed, while the lifetime lines
// stay as TestExpositionPins pins them.
func TestWindowedSnapshotTextAndJSON(t *testing.T) {
	clk := newFakeClock()
	r := pinnedRegistry(clk)
	clk.advance(Window)

	snap := r.Snapshot()
	lines := strings.Split(strings.TrimSuffix(snap.Text(), "\n"), "\n")
	if err := inOrder(lines, lifetimeLines); err != "" {
		t.Errorf("Text(): %s", err)
	}
	for _, want := range []string{"requests_total_rate 0", "fetch_seconds_window_count 0", "fetch_seconds_rate 0"} {
		if err := inOrder(lines, []string{want}); err != "" {
			t.Errorf("Text(): %s", err)
		}
	}
	if strings.Contains(snap.Text(), "_window_p") {
		t.Errorf("Text() prints quantiles of an empty window:\n%s", snap.Text())
	}

	var back Snapshot
	if err := json.Unmarshal(snap.JSON(), &back); err != nil {
		t.Fatalf("snapshot JSON round-trip: %v", err)
	}
	if got := back.Histograms["fetch_seconds"]; got.WindowCount != 0 || got.Count != 5 {
		t.Errorf("JSON histogram after the window = %+v", got)
	}
	if got, ok := back.CounterRates["requests_total"]; !ok || got != 0 {
		t.Errorf("JSON counter rate after the window = %g (present %v)", got, ok)
	}
}

func TestWindowedConcurrent(t *testing.T) {
	// Meaningful under -race: concurrent recorders into one window must
	// not trip the detector or lose counts.
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h_seconds")
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
	if got := c.Rate(); got != rate(16000) {
		t.Errorf("concurrent counter rate = %g, want %g", got, rate(16000))
	}
	if got := h.Stats().WindowCount; got != 16000 {
		t.Errorf("concurrent histogram window count = %d, want 16000", got)
	}
}

// TestQuantilePins pins the P50/P95/P99 a histogram reports over its
// lifetime and over its window, for observations below, inside and past
// the last bucket bound. The two differ only in the overflow bucket:
// the lifetime estimate interpolates up to the running max, the window
// (which keeps no max) reports the last finite bound.
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
		h := fakeHistogram(newFakeClock(), bounds)
		for _, v := range c.values {
			h.Observe(v)
		}
		st := h.Stats()
		if got := [3]float64{st.P50, st.P95, st.P99}; got != c.lifetime {
			t.Errorf("%s: lifetime P50/P95/P99 = %v, want %v", c.name, got, c.lifetime)
		}
		if got := [3]float64{st.WindowP50, st.WindowP95, st.WindowP99}; got != c.window {
			t.Errorf("%s: window P50/P95/P99 = %v, want %v", c.name, got, c.window)
		}
	}
}
