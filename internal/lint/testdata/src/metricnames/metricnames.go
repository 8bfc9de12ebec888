// Package metricnames is a lint fixture: obs constructor call sites in
// every accepted and rejected shape. The want comments are matched
// against the analyzer's diagnostics by TestFixtures, which wires a
// fixture-local documented set of frames_total, enhance_seconds and
// queue_depth.
package metricnames

import "dcsr/internal/obs"

const suffix = "_seconds"

// Good covers the accepted shapes: plain literals on both constructor
// receivers and a constant-folded concatenation.
func Good(o *obs.Obs, reg *obs.Registry) {
	o.Counter("frames_total").Inc()
	reg.Gauge("queue_depth").Add(1)
	o.Histogram("enhance" + suffix).Observe(0.5)
	reg.Histogram("rtt_seconds").Observe(0.01)
	// The int8 quantization surface: gate counters plus the int8 path's
	// enhance latency beside the float32 histogram.
	o.Counter("quant_int8_models_total").Inc()
	o.Counter("quant_fallback_total").Inc()
	o.Histogram("codec_enhance_int8_seconds").Observe(0.002)
	// The model-stream surface: backbone/delta session counters and the
	// delta_encode gate verdicts.
	o.Counter("modelstream_backbone_fetch_total").Inc()
	o.Counter("modelstream_delta_bytes_total").Add(512)
	o.Counter("modelstream_fallback_total").Inc()
	o.Counter("delta_models_total").Inc()
	o.Counter("delta_fallback_total").Inc()
}

// Bad covers one violation per rule.
func Bad(o *obs.Obs, reg *obs.Registry, name string) {
	o.Counter(name).Inc()                       // want "compile-time string constant"
	o.Counter("BadName_total").Inc()            // want "not snake_case"
	o.Counter("frames").Inc()                   // want "must end in _total"
	reg.Histogram("enhance_latency").Observe(1) // want "unit suffix"
	o.Gauge("queue_total").Add(2)               // want "counter/histogram suffix"
	o.Counter("undocumented_total").Inc()       // want "not documented in docs/OPERATIONS.md"
}

// Suppressed shows both directive placements.
func Suppressed(o *obs.Obs, name string) {
	//lint:allow metricnames fixture: the dynamic name is the case under test
	o.Counter(name).Inc()
	o.Counter(name).Inc() //lint:allow metricnames fixture: trailing form of the same suppression
}

// NotAnObsHandle must stay out of scope: same method names, different
// receiver type.
type NotAnObsHandle struct{}

// Counter mimics the constructor shape on a foreign type.
func (NotAnObsHandle) Counter(name string) NotAnObsHandle { return NotAnObsHandle{} }

// OutOfScope calls the look-alike with a dynamic name.
func OutOfScope(h NotAnObsHandle, name string) {
	h.Counter(name)
}
