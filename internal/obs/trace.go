package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// idCounter drives trace/span ID generation: a process-unique seed
// (stamped from the clock at init) advanced by a large odd constant and
// mixed through splitmix64, so IDs are cheap, allocation-free, unique
// within a process and well-distributed across processes. IDs are
// identifiers, not randomness — determinism of the pipeline's outputs
// is untouched.
var idCounter atomic.Uint64

func init() {
	idCounter.Store(uint64(time.Now().UnixNano()))
}

// newID returns a non-zero 64-bit identifier. Zero is reserved as the
// wire encoding of "no trace".
func newID() uint64 {
	x := idCounter.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// IDString renders a trace or span ID the way /debug/trace and the
// -trace CLI flag print them: 16 lower-case hex digits.
func IDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// Span is one timed stage of a pipeline run. Spans form a tree: child
// spans are created with Child and may be added concurrently (per-span
// mutex), which core.Prepare relies on for its parallel per-cluster
// training stage. A nil *Span is a no-op for every method, so call
// sites never branch on whether tracing is enabled.
//
// Every span carries identity: a trace ID shared by the whole tree (and
// propagated across the wire by internal/transport) plus its own span
// ID and its parent's. The IDs are immutable after creation.
type Span struct {
	mu       sync.Mutex
	name     string
	traceID  uint64
	spanID   uint64
	parentID uint64
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

func newSpan(name string) *Span {
	return &Span{name: name, traceID: newID(), spanID: newID(), start: time.Now()}
}

// JoinSpan opens a detached root span that joins an existing trace —
// the server side of wire trace propagation, where the parent span
// lives in another process. The span is not retained anywhere; record
// it into a TraceBuffer (Obs.RecordTrace) once ended.
func JoinSpan(name string, traceID, parentID uint64) *Span {
	s := newSpan(name)
	s.traceID = traceID
	s.parentID = parentID
	return s
}

// TraceID returns the identifier shared by every span of this trace
// (zero on a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SpanID returns this span's own identifier (zero on a nil span).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// Child opens a sub-span sharing the parent's trace ID. Safe to call
// from multiple goroutines.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	c.traceID = s.traceID
	c.parentID = s.spanID
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Set attaches an attribute (last write for a key wins on export).
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End marks the span finished; the first call wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

type spanKey struct{}

// WithSpan returns ctx carrying s as the active span: requests issued
// under the returned context hang their own spans (the transport's
// per-attempt children) off s. A nil span returns ctx unchanged.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the active span WithSpan stored in ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Duration returns the span's wall time (time-to-now if still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanJSON is the exportable snapshot of a span subtree. TraceID,
// SpanID and ParentID are 16-hex-digit identifiers (see IDString);
// ParentID is empty on a locally rooted span.
type SpanJSON struct {
	Name       string         `json:"name"`
	TraceID    string         `json:"trace_id,omitempty"`
	SpanID     string         `json:"span_id,omitempty"`
	ParentID   string         `json:"parent_id,omitempty"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	InFlight   bool           `json:"in_flight,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanJSON     `json:"children,omitempty"`
}

// Export snapshots the span and its descendants into a JSON-ready tree.
func (s *Span) Export() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.mu.Lock()
	out := SpanJSON{Name: s.name, Start: s.start}
	if s.traceID != 0 {
		out.TraceID = IDString(s.traceID)
		out.SpanID = IDString(s.spanID)
	}
	if s.parentID != 0 {
		out.ParentID = IDString(s.parentID)
	}
	if s.end.IsZero() {
		out.InFlight = true
		out.DurationMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	} else {
		out.DurationMS = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Export())
	}
	return out
}

// Tracer retains the most recent root spans (a bounded ring) so an
// operator can inspect the last few Prepare/Play runs via /debug/trace.
// A nil *Tracer returns nil spans from Start.
type Tracer struct {
	mu    sync.Mutex
	keep  int
	roots []*Span
}

// NewTracer returns a tracer retaining the last keep root spans
// (keep <= 0 means 16).
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = 16
	}
	return &Tracer{keep: keep}
}

// Start opens and retains a new root span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(name)
	t.mu.Lock()
	t.roots = append(t.roots, s)
	if len(t.roots) > t.keep {
		t.roots = append(t.roots[:0], t.roots[len(t.roots)-t.keep:]...)
	}
	t.mu.Unlock()
	return s
}

// Traces exports the retained root spans, oldest first.
func (t *Tracer) Traces() []SpanJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	roots := make([]*Span, len(t.roots))
	copy(roots, t.roots)
	t.mu.Unlock()
	out := make([]SpanJSON, 0, len(roots))
	for _, s := range roots {
		out = append(out, s.Export())
	}
	return out
}

// TracesJSON renders Traces as indented JSON.
func (t *Tracer) TracesJSON() []byte {
	data, err := json.MarshalIndent(t.Traces(), "", "  ")
	if err != nil {
		return []byte("[]")
	}
	return data
}

// TraceBuffer retains the most recent completed spans in a bounded
// ring, indexed by trace ID, so an operator can reassemble one
// request's cross-process story after the fact: the transport server
// records one span per traced request here, and /debug/trace?id=
// returns every retained span of that trace. A nil *TraceBuffer is a
// no-op recorder and an empty lookup.
type TraceBuffer struct {
	mu    sync.Mutex
	cap   int
	spans []*Span // recording order, oldest first
}

// NewTraceBuffer returns a buffer retaining the last capacity spans
// (capacity <= 0 means 256).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = 256
	}
	return &TraceBuffer{cap: capacity}
}

// Record retains a completed span, evicting the oldest past capacity.
func (b *TraceBuffer) Record(s *Span) {
	if b == nil {
		return
	}
	if s == nil {
		return
	}
	b.mu.Lock()
	b.spans = append(b.spans, s)
	if len(b.spans) > b.cap {
		b.spans = append(b.spans[:0], b.spans[len(b.spans)-b.cap:]...)
	}
	b.mu.Unlock()
}

// Len returns how many spans are currently retained.
func (b *TraceBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.spans)
}

// Trace exports every retained span belonging to traceID, in recording
// order. The result is nil when the trace has aged out (or never hit
// this process).
func (b *TraceBuffer) Trace(traceID uint64) []SpanJSON {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	var match []*Span
	for _, s := range b.spans {
		if s.traceID == traceID {
			match = append(match, s)
		}
	}
	b.mu.Unlock()
	out := make([]SpanJSON, 0, len(match))
	for _, s := range match {
		out = append(out, s.Export())
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
