// Tests for span identity, cross-process trace joining and the
// Tracer's lookup by trace ID behind /debug/trace?id=.
package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSpanIdentity(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Start("play")
	child := root.Child("segment")

	if root.TraceID() == 0 || root.SpanID() == 0 {
		t.Fatal("root span must carry non-zero identity")
	}
	if child.TraceID() != root.TraceID() {
		t.Errorf("child trace ID %x != root %x", child.TraceID(), root.TraceID())
	}
	if child.SpanID() == root.SpanID() {
		t.Error("child must have its own span ID")
	}
	child.End()
	root.End()

	out := root.Export()
	if out.TraceID != IDString(root.TraceID()) || out.SpanID != IDString(root.SpanID()) {
		t.Errorf("export IDs = %q/%q", out.TraceID, out.SpanID)
	}
	if out.ParentID != "" {
		t.Errorf("root parent = %q, want empty", out.ParentID)
	}
	if len(out.Children) != 1 || out.Children[0].ParentID != out.SpanID {
		t.Errorf("child not parented to root: %+v", out.Children)
	}
}

func TestNewIDUniqueAndNonZero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := newID()
		if id == 0 {
			t.Fatal("newID returned the reserved zero value")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %x after %d draws", id, i)
		}
		seen[id] = true
	}
	if got := IDString(0x1a); got != "000000000000001a" {
		t.Errorf("IDString = %q", got)
	}
}

func TestJoinSpan(t *testing.T) {
	// Simulate the server side: a remote parent identified only by IDs.
	const traceID, parentID = 0xabc, 0xdef
	s := JoinSpan("server.segment", traceID, parentID)
	s.Set("status", "ok")
	s.End()

	if s.TraceID() != traceID {
		t.Errorf("trace ID = %x, want %x", s.TraceID(), traceID)
	}
	out := s.Export()
	if out.ParentID != IDString(parentID) {
		t.Errorf("parent ID = %q, want %q", out.ParentID, IDString(parentID))
	}
	if out.SpanID == IDString(parentID) || out.SpanID == "" {
		t.Errorf("joined span must mint its own span ID, got %q", out.SpanID)
	}
}

func TestTracerLookupAndEviction(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Start("play") // a locally started root shares the ring
	for i := 0; i < 5; i++ {
		s := JoinSpan(fmt.Sprintf("req%d", i), uint64(100+i), 1)
		s.End()
		tr.Record(s)
	}
	if n := len(tr.Traces()); n != 4 {
		t.Fatalf("retained %d spans, want capacity 4", n)
	}
	// The root and the oldest joined span were evicted.
	if got := tr.Trace(root.TraceID()); got != nil {
		t.Errorf("evicted root still retrievable: %+v", got)
	}
	if got := tr.Trace(100); got != nil {
		t.Errorf("evicted trace still retrievable: %+v", got)
	}
	if got := tr.Trace(104); len(got) != 1 || got[0].Name != "req4" {
		t.Errorf("trace 104 = %+v", got)
	}
	if got := tr.Trace(0xffff); got != nil {
		t.Errorf("unknown trace = %+v, want nil", got)
	}

	// Every retained span of one trace comes back in recording order,
	// a locally started root among them.
	tr2 := NewTracer(8)
	local := tr2.Start("play")
	for attempt := 1; attempt <= 3; attempt++ {
		s := JoinSpan("server.model", local.TraceID(), uint64(attempt))
		s.End()
		tr2.Record(s)
	}
	got := tr2.Trace(local.TraceID())
	if len(got) != 4 || got[0].Name != "play" {
		t.Fatalf("trace spans = %+v, want the root and 3 joined spans", got)
	}
	for i, sp := range got[1:] {
		if sp.ParentID != IDString(uint64(i+1)) {
			t.Errorf("span %d parent = %q", i, sp.ParentID)
		}
	}
}

// TestTraceBufferNilSafety checks the record path of the span store
// (joined request spans): a nil Tracer, a nil span and a nil Obs are
// all no-ops.
func TestTraceBufferNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Record(JoinSpan("x", 1, 0))
	if tr.Traces() != nil || tr.Trace(1) != nil {
		t.Error("nil tracer must be an empty no-op")
	}
	live := NewTracer(0) // defaulted capacity
	live.Record(nil)     // nil span ignored
	if n := len(live.Traces()); n != 0 {
		t.Errorf("recording a nil span retained %d spans", n)
	}
	var o *Obs
	o.RecordTrace(JoinSpan("x", 1, 0)) // must not panic
}

func TestDebugTraceByID(t *testing.T) {
	o := New()
	s := JoinSpan("server.segment", 0xbeef, 0x1)
	s.Set("op", "segment")
	s.End()
	o.RecordTrace(s)

	h := o.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id="+IDString(0xbeef), nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var spans []SpanJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "server.segment" || spans[0].TraceID != IDString(0xbeef) {
		t.Errorf("spans = %+v", spans)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id=00000000000000aa", nil))
	if rec.Code != 404 {
		t.Errorf("unknown trace status = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id=nothex", nil))
	if rec.Code != 400 {
		t.Errorf("malformed id status = %d, want 400", rec.Code)
	}

	// ?id= finds a locally started root too, children included.
	root := o.Start("play")
	root.Child("segment").End()
	root.End()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id="+IDString(root.TraceID()), nil))
	spans = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); rec.Code != 200 || err != nil {
		t.Fatalf("root lookup status = %d, decode %v", rec.Code, err)
	}
	if len(spans) != 1 || spans[0].Name != "play" || len(spans[0].Children) != 1 {
		t.Errorf("root lookup = %+v", spans)
	}

	// Without ?id= the endpoint lists the last n retained spans, joined
	// and local alike.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 || !strings.HasPrefix(strings.TrimSpace(rec.Body.String()), "[") {
		t.Errorf("trace list status = %d, body %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?n=1", nil))
	spans = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); rec.Code != 200 || err != nil || len(spans) != 1 || spans[0].Name != "play" {
		t.Errorf("?n=1 status = %d, spans %+v, decode %v", rec.Code, spans, err)
	}

	// A malformed or negative n is refused, as a malformed id is, rather
	// than silently dumping every span.
	for _, n := range []string{"abc", "-1"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?n="+n, nil))
		if rec.Code != 400 {
			t.Errorf("?n=%s status = %d, want 400", n, rec.Code)
		}
	}
}
