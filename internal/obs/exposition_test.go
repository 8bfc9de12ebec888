package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// pinnedRegistry is the fixed registry the exposition pins read: one
// counter, one gauge and one default-bound histogram with known
// observations, their windows reading clk.
func pinnedRegistry(clk *fakeClock) *Registry {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.w.clock = clk.now
	c.Add(3)
	r.Gauge("sessions").Set(2)
	h := r.Histogram("fetch_seconds")
	h.w.clock = clk.now
	for _, v := range []float64{0.001, 0.002, 0.004, 0.25, 3} {
		h.Observe(v)
	}
	return r
}

// lifetimeLines is the registry's lifetime exposition, line for line.
// These names and formats are what scrapers parse; they never change.
var lifetimeLines = []string{
	"requests_total 3",
	"sessions 2",
	"fetch_seconds_count 5",
	"fetch_seconds_sum 3.257",
	"fetch_seconds_min 0.001",
	"fetch_seconds_max 3",
	"fetch_seconds_p50 0.003072",
	"fetch_seconds_p95 3.670016",
	"fetch_seconds_p99 4.0894464",
}

// windowLines is the same registry's window exposition, read inside
// the window that holds every observation. The window keeps no max, so
// its quantiles equal the lifetime ones whenever no observation lies
// past the last bound.
var windowLines = []string{
	"requests_total_rate 0.1",
	"fetch_seconds_window_count 5",
	"fetch_seconds_rate 0.16666666666666666",
	"fetch_seconds_window_p50 0.003072",
	"fetch_seconds_window_p95 3.670016",
	"fetch_seconds_window_p99 4.0894464",
}

// TestExpositionPins asserts the lifetime lines of Snapshot.Text, in
// order, and the lifetime fields of Snapshot.JSON, verbatim; then the
// window lines and fields under a fake clock.
func TestExpositionPins(t *testing.T) {
	snap := pinnedRegistry(newFakeClock()).Snapshot()
	lines := strings.Split(strings.TrimSuffix(snap.Text(), "\n"), "\n")
	if err := inOrder(lines, lifetimeLines); err != "" {
		t.Errorf("Text(): %s\n%s", err, snap.Text())
	}
	if err := inOrder(lines, windowLines); err != "" {
		t.Errorf("Text(): %s\n%s", err, snap.Text())
	}
	if len(lines) != len(lifetimeLines)+len(windowLines) {
		t.Errorf("Text() has %d lines, want %d:\n%s", len(lines), len(lifetimeLines)+len(windowLines), snap.Text())
	}

	var doc struct {
		Counters     map[string]json.RawMessage            `json:"counters"`
		CounterRates map[string]json.RawMessage            `json:"counter_rates"`
		Gauges       map[string]json.RawMessage            `json:"gauges"`
		Histograms   map[string]map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(snap.JSON(), &doc); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if got := string(doc.Counters["requests_total"]); got != "3" {
		t.Errorf("JSON counters.requests_total = %s, want 3", got)
	}
	if got := string(doc.Gauges["sessions"]); got != "2" {
		t.Errorf("JSON gauges.sessions = %s, want 2", got)
	}
	h := doc.Histograms["fetch_seconds"]
	for key, want := range map[string]string{
		"count": "5", "sum": "3.257", "mean": "0.6514",
		"min": "0.001", "max": "3",
		"p50": "0.003072", "p95": "3.670016", "p99": "4.0894464",
	} {
		if got := string(h[key]); got != want {
			t.Errorf("JSON histograms.fetch_seconds.%s = %s, want %s", key, got, want)
		}
	}

	if got := string(doc.CounterRates["requests_total"]); got != "0.1" {
		t.Errorf("JSON counter_rates.requests_total = %s, want 0.1", got)
	}
	for key, want := range map[string]string{
		"window_count": "5", "rate": "0.16666666666666666",
		"window_p50": "0.003072", "window_p95": "3.670016", "window_p99": "4.0894464",
	} {
		if got := string(h[key]); got != want {
			t.Errorf("JSON histograms.fetch_seconds.%s = %s, want %s", key, got, want)
		}
	}
}

// inOrder reports, as a non-empty message, the first line of want that
// does not appear in lines after the one before it.
func inOrder(lines, want []string) string {
	i := 0
	for _, w := range want {
		for i < len(lines) && lines[i] != w {
			i++
		}
		if i == len(lines) {
			return "missing or out of order: " + w
		}
		i++
	}
	return ""
}
