// Package obs is the observability substrate of the dcSR system: a
// concurrency-safe metrics registry (monotonic atomic counters, gauges,
// and streaming histograms with lifetime quantile estimates and
// cumulative buckets, from which a scraper takes rates and recent
// quantiles between two scrapes), a lightweight span tracer for nested
// pipeline stages and joined cross-process request spans, exportable as
// JSON trace trees, and a leveled structured logger — all
// standard-library only.
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
// The metric names components register, with their meanings, are
// tabulated in docs/OPERATIONS.md, which TestOperationsDocMetrics (the
// module root's operations_docs_test.go) checks against a live snapshot.
package obs

// Obs bundles the observability facilities a component may use.
// The zero value (and a nil pointer) disables everything.
type Obs struct {
	Metrics *Registry
	Trace   *Tracer
	Log     *Logger
}

// New returns an Obs with a fresh registry and a tracer keeping the
// last 256 spans. Log is left nil (no-op); set it to enable logging.
func New() *Obs {
	return &Obs{Metrics: NewRegistry(), Trace: NewTracer(256)}
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

// Start opens a new root span on the tracer, or returns nil when o is
// nil (all Span operations on nil are no-ops).
func (o *Obs) Start(name string) *Span {
	if o == nil {
		return nil
	}
	return o.Trace.Start(name)
}

// RecordTrace retains a completed joined span (see JoinSpan) on the
// tracer for /debug/trace; a no-op when o (or its tracer) is nil.
func (o *Obs) RecordTrace(s *Span) {
	if o == nil {
		return
	}
	o.Trace.Record(s)
}

// Logger returns the bundle's logger (possibly nil, which is a no-op).
func (o *Obs) Logger() *Logger {
	if o == nil {
		return nil
	}
	return o.Log
}
