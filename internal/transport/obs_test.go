package transport

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"

	"dcsr/internal/obs"
)

type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServerClientObservability streams a full playback over a pipe
// with both sides instrumented and asserts the transport metric
// surface: request counts, byte accounting that matches the client's
// own BytesUp/BytesDown, per-op latency histograms, and client-side
// cache hit/miss counters.
func TestServerClientObservability(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	so := obs.New()
	srv.Obs = so
	cconn, sconn := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); _ = srv.ServeConn(sconn) }()
	defer sconn.Close()

	co := obs.New()
	client := NewClient(cconn)
	client.Obs = co
	_, stats, err := client.PlayCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	// Hang up and wait for ServeConn to return so the server has finished
	// accounting its final response before we snapshot its registry.
	cconn.Close()
	<-served

	ss := so.Metrics.Snapshot()
	wantReqs := int64(1 + len(prep.Segments) + stats.ModelDownloads)
	if got := ss.Counters["transport_requests_total"]; got != wantReqs {
		t.Errorf("transport_requests_total = %d, want %d", got, wantReqs)
	}
	wantBytesIn := wantReqs * reqFrameBytes
	if got := ss.Counters["transport_bytes_in_total"]; got != wantBytesIn {
		t.Errorf("transport_bytes_in_total = %d, want %d", got, wantBytesIn)
	}
	if got := int64(client.BytesUp); got != wantBytesIn {
		t.Errorf("client BytesUp = %d, want %d", got, wantBytesIn)
	}
	if got := ss.Counters["transport_bytes_out_total"]; got != int64(client.BytesDown) {
		t.Errorf("server bytes out %d != client bytes down %d", got, client.BytesDown)
	}
	for _, h := range []string{"transport_manifest_seconds", "transport_segment_seconds", "transport_model_seconds"} {
		if ss.Histograms[h].Count == 0 {
			t.Errorf("histogram %s never observed", h)
		}
	}
	if got := ss.Histograms["transport_segment_seconds"].Count; got != int64(len(prep.Segments)) {
		t.Errorf("segment latency observations = %d, want %d", got, len(prep.Segments))
	}

	cs := co.Metrics.Snapshot()
	if got := cs.Counters["transport_client_requests_total"]; got != wantReqs {
		t.Errorf("transport_client_requests_total = %d, want %d", got, wantReqs)
	}
	if got := cs.Counters["transport_client_bytes_down_total"]; got != int64(client.BytesDown) {
		t.Errorf("transport_client_bytes_down_total = %d, want %d", got, client.BytesDown)
	}
	if got := cs.Counters["cache_hits_total"]; got != int64(stats.CacheHits) {
		t.Errorf("cache_hits_total = %d, want %d", got, stats.CacheHits)
	}
	if got := cs.Counters["cache_misses_total"]; got != int64(stats.ModelDownloads) {
		t.Errorf("cache_misses_total = %d, want %d", got, stats.ModelDownloads)
	}
	if got := cs.Counters["model_bytes_total"]; got != int64(stats.ModelBytes) {
		t.Errorf("model_bytes_total = %d, want %d", got, stats.ModelBytes)
	}

	// The cumulative buckets end at the lifetime count: a scraper's
	// recent rate and quantiles see the same traffic.
	inf := func(h obs.HistogramStats) int64 { return h.Buckets[len(h.Buckets)-1] }
	if got := inf(ss.Histograms["transport_segment_seconds"]); got != int64(len(prep.Segments)) {
		t.Errorf(`transport_segment_seconds_bucket{le="+Inf"} = %d, want %d`, got, len(prep.Segments))
	}
	if got := cs.Histograms["transport_client_rtt_seconds"]; got.Count != wantReqs || inf(got) != wantReqs {
		t.Errorf(`transport_client_rtt_seconds count = %d (le="+Inf" %d), want %d`, got.Count, inf(got), wantReqs)
	}
	if got := cs.Counters["segments_fetched_total"]; got != int64(len(prep.Segments)) {
		t.Errorf("segments_fetched_total = %d, want %d", got, len(prep.Segments))
	}

	// The client_play trace carries one segment_fetch child per segment
	// plus the manifest's attempt span (fault-free run: one attempt).
	traces := co.Trace.Traces()
	if len(traces) != 1 || traces[0].Name != "client_play" {
		t.Fatalf("client traces = %+v", traces)
	}
	var fetches, attempts int
	for _, ch := range traces[0].Children {
		switch ch.Name {
		case "segment_fetch":
			fetches++
		case "attempt":
			attempts++
		}
	}
	if fetches != len(prep.Segments) || attempts != 1 {
		t.Errorf("client_play children: %d segment_fetch + %d attempt, want %d + 1",
			fetches, attempts, len(prep.Segments))
	}
}

// TestClientLogsErrors verifies client failures are no longer silent:
// a request for a missing model must emit a WARN line through the
// client's Obs.Log.
func TestClientLogsErrors(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()

	var buf lockedBuf
	client := NewClient(cconn)
	client.Obs = &obs.Obs{Log: obs.NewLogger(&buf, obs.LevelDebug)}
	if _, _, err := client.ModelCtx(context.Background(), 9999, prep.MicroConfig); err == nil {
		t.Fatal("fetching a missing model succeeded")
	}
	if out := buf.String(); !strings.Contains(out, "WARN") || !strings.Contains(out, "op=model") {
		t.Errorf("client did not log the failed request: %q", out)
	}
}

// TestServerLogsRejections verifies the server's Obs.Log records
// rejected requests.
func TestServerLogsRejections(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	var buf lockedBuf
	srv.Obs = obs.New()
	srv.Obs.Log = obs.NewLogger(&buf, obs.LevelDebug)
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()

	client := NewClient(cconn)
	if _, err := client.SegmentCtx(context.Background(), 4242); err == nil {
		t.Fatal("fetching a missing segment succeeded")
	}
	if out := buf.String(); !strings.Contains(out, "request rejected") {
		t.Errorf("server did not log the rejection: %q", out)
	}
	if got := srv.Obs.Counter("transport_not_found_total").Value(); got != 1 {
		t.Errorf("transport_not_found_total = %d, want 1", got)
	}
}
