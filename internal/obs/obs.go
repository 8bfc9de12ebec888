// Package obs is the observability substrate of the dcSR system: a
// concurrency-safe metrics registry (atomic counters, gauges, streaming
// histograms with quantile estimates), a lightweight span tracer for
// nested pipeline stages exportable as a JSON trace tree, and a leveled
// structured logger — all standard-library only.
//
// Every handle is nil-safe: a nil *Obs, *Registry, *Tracer, *Logger,
// *Counter, *Gauge, *Histogram or *Span turns every operation into a
// no-op that performs zero allocations, so instrumented code paths pay
// nothing when observability is disabled. Components therefore take a
// plain `Obs *obs.Obs` field (or parameter) whose zero value means
// "off"; the instrumentation call sites never branch on it.
// TestNilHandlesAreNoOps holds every exported handle method to this by
// calling it on nil.
//
// Stable metric surface (asserted by tests, tabulated with meanings in
// docs/OPERATIONS.md):
//
//	prepare_runs_total, prepare_segments_total, prepare_clusters_total,
//	train_samples_total, train_steps_total, train_flops_total,
//	segments_fetched_total, cache_hits_total, cache_misses_total,
//	video_bytes_total, model_bytes_total,
//	degraded_segments_total, model_fetch_failures_total,
//	codec_frames_decoded_total, codec_iframes_enhanced_total,
//	codec_enhance_seconds (histogram),
//	transport_requests_total, transport_not_found_total,
//	transport_shed_total,
//	transport_bytes_in_total, transport_bytes_out_total,
//	transport_open_conns, transport_videos, transport_inflight,
//	transport_inflight_peak (gauges),
//	transport_manifest_seconds, transport_segment_seconds,
//	transport_model_seconds, transport_directory_seconds,
//	transport_unknown_seconds (histograms),
//	transport_client_requests_total, transport_client_bytes_up_total,
//	transport_client_bytes_down_total, transport_client_retries_total,
//	transport_client_timeouts_total, transport_client_reconnects_total,
//	transport_client_shed_total,
//	transport_client_rtt_seconds (histogram),
//	and the time-resolved rolling-window series
//	transport_requests_window_total, transport_shed_window_total,
//	segments_fetched_window_total
//	(windowed counters), transport_manifest_window_seconds,
//	transport_segment_window_seconds, transport_model_window_seconds,
//	transport_client_rtt_window_seconds, codec_enhance_window_seconds
//	(windowed histograms).
package obs

// Obs bundles the observability facilities a component may use.
// The zero value (and a nil pointer) disables everything.
type Obs struct {
	Metrics *Registry
	Trace   *Tracer
	Log     *Logger
	// TraceBuf retains recently completed cross-process request spans
	// (the transport server's half of wire trace propagation), looked
	// up by trace ID on /debug/trace?id=.
	TraceBuf *TraceBuffer
}

// New returns an Obs with a fresh registry, a tracer keeping the last
// 32 root spans, and a trace buffer keeping the last 256 request
// spans. Log is left nil (no-op); set it to enable logging.
func New() *Obs {
	return &Obs{Metrics: NewRegistry(), Trace: NewTracer(32), TraceBuf: NewTraceBuffer(256)}
}

// Counter returns the named counter, or nil (a no-op) when o is nil.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge, or nil (a no-op) when o is nil.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram with default bounds, or nil.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// WindowedCounter returns the named rolling-window counter, or nil (a
// no-op) when o is nil.
func (o *Obs) WindowedCounter(name string) *WindowedCounter {
	if o == nil {
		return nil
	}
	return o.Metrics.WindowedCounter(name)
}

// WindowedHistogram returns the named rolling-window histogram with
// default bounds and window, or nil (a no-op) when o is nil.
func (o *Obs) WindowedHistogram(name string) *WindowedHistogram {
	if o == nil {
		return nil
	}
	return o.Metrics.WindowedHistogram(name)
}

// Start opens a new root span on the tracer, or returns nil when o is
// nil (all Span operations on nil are no-ops).
func (o *Obs) Start(name string) *Span {
	if o == nil {
		return nil
	}
	return o.Trace.Start(name)
}

// RecordTrace retains a completed span in the trace buffer for
// /debug/trace?id= lookup; a no-op when o (or its buffer) is nil.
func (o *Obs) RecordTrace(s *Span) {
	if o == nil {
		return
	}
	o.TraceBuf.Record(s)
}

// Logger returns the bundle's logger (possibly nil, which is a no-op).
func (o *Obs) Logger() *Logger {
	if o == nil {
		return nil
	}
	return o.Log
}
