package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// pinnedRegistry is the fixed registry the exposition pins read: one
// counter, one gauge and one default-bound histogram with known
// observations.
func pinnedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("requests_total").Add(3)
	r.Gauge("sessions").Set(2)
	h := r.Histogram("fetch_seconds")
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

// bucketLines is the same histogram's cumulative buckets, one line per
// bound of the default ladder, then +Inf, which equals
// fetch_seconds_count. A scraper takes a recent rate or quantile from
// the difference of two scrapes of these.
var bucketLines = []string{
	`fetch_seconds_bucket{le="1e-06"} 0`,
	`fetch_seconds_bucket{le="2e-06"} 0`,
	`fetch_seconds_bucket{le="4e-06"} 0`,
	`fetch_seconds_bucket{le="8e-06"} 0`,
	`fetch_seconds_bucket{le="1.6e-05"} 0`,
	`fetch_seconds_bucket{le="3.2e-05"} 0`,
	`fetch_seconds_bucket{le="6.4e-05"} 0`,
	`fetch_seconds_bucket{le="0.000128"} 0`,
	`fetch_seconds_bucket{le="0.000256"} 0`,
	`fetch_seconds_bucket{le="0.000512"} 0`,
	`fetch_seconds_bucket{le="0.001024"} 1`,
	`fetch_seconds_bucket{le="0.002048"} 2`,
	`fetch_seconds_bucket{le="0.004096"} 3`,
	`fetch_seconds_bucket{le="0.008192"} 3`,
	`fetch_seconds_bucket{le="0.016384"} 3`,
	`fetch_seconds_bucket{le="0.032768"} 3`,
	`fetch_seconds_bucket{le="0.065536"} 3`,
	`fetch_seconds_bucket{le="0.131072"} 3`,
	`fetch_seconds_bucket{le="0.262144"} 4`,
	`fetch_seconds_bucket{le="0.524288"} 4`,
	`fetch_seconds_bucket{le="1.048576"} 4`,
	`fetch_seconds_bucket{le="2.097152"} 4`,
	`fetch_seconds_bucket{le="4.194304"} 5`,
	`fetch_seconds_bucket{le="8.388608"} 5`,
	`fetch_seconds_bucket{le="16.777216"} 5`,
	`fetch_seconds_bucket{le="+Inf"} 5`,
}

// TestExpositionPins asserts the lines of Snapshot.Text, in order, and
// the fields of Snapshot.JSON, verbatim.
func TestExpositionPins(t *testing.T) {
	snap := pinnedRegistry().Snapshot()
	want := strings.Join(append(append([]string(nil), lifetimeLines...), bucketLines...), "\n") + "\n"
	if got := snap.Text(); got != want {
		t.Errorf("Text() =\n%swant\n%s", got, want)
	}

	var doc struct {
		Counters   map[string]json.RawMessage            `json:"counters"`
		Gauges     map[string]json.RawMessage            `json:"gauges"`
		Histograms map[string]map[string]json.RawMessage `json:"histograms"`
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
	var buckets []int64
	if err := json.Unmarshal(h["buckets"], &buckets); err != nil {
		t.Fatalf("JSON histograms.fetch_seconds.buckets: %v", err)
	}
	wantBuckets := []int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5}
	if fmt.Sprint(buckets) != fmt.Sprint(wantBuckets) {
		t.Errorf("JSON histograms.fetch_seconds.buckets = %v, want %v", buckets, wantBuckets)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(snap.JSON(), &top); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if len(top) != 3 || len(doc.Counters)+len(doc.Gauges)+len(doc.Histograms) != 3 || len(h) != 9 {
		t.Errorf("JSON carries fields beyond the pinned ones:\n%s", snap.JSON())
	}
}
