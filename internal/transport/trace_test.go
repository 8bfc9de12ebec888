// Tests for wire-level trace propagation: frame compatibility across
// protocol generations, fault behaviour of the traced frame, retry
// attribution, and the end-to-end client → server → /debug/trace?id=
// path. Everything here is meaningful under -race (the documented
// invocation for the interop suite is `go test -race`).
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dcsr/internal/faultnet"
	"dcsr/internal/obs"
)

// waitTraceLen waits for the server's trace buffer to hold at least
// want spans: the server records a request's span just after writing
// its response, so the client can observe the reply a moment before the
// span lands.
func waitTraceLen(t *testing.T, b *obs.TraceBuffer, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b.Len() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("trace buffer has %d spans, want at least %d", b.Len(), want)
}

// TestWireTraceFraming round-trips a traced frame and pins the
// compatibility contract at the byte level: a plain 'dcT1' frame parses
// as "no trace" and a traced 'dcT2' frame yields its context back.
func TestWireTraceFraming(t *testing.T) {
	var buf lockedBuf
	want := TraceContext{TraceID: 0xdeadbeef, SpanID: 0x1234, Attempt: 3}
	if err := writeRequestTraced(&buf, OpModel, 7, want); err != nil {
		t.Fatal(err)
	}
	if n := len(buf.String()); n != tracedReqFrameBytes {
		t.Fatalf("traced frame is %d bytes, want %d", n, tracedReqFrameBytes)
	}
	req, err := readRequest(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpModel || req.Arg != 7 || req.TC != want {
		t.Fatalf("round trip gave op=%d arg=%d tc=%+v", req.Op, req.Arg, req.TC)
	}
	if req.TC.frameBytes() != tracedReqFrameBytes {
		t.Errorf("frameBytes = %d", req.TC.frameBytes())
	}
	if (TraceContext{}).frameBytes() != reqFrameBytes {
		t.Errorf("zero frameBytes = %d", TraceContext{}.frameBytes())
	}

	// A traced frame cut inside the trace context is a broken
	// connection (io.ErrUnexpectedEOF), not a parse of garbage.
	cut := buf.String()[:reqFrameBytes+4]
	if _, err := readRequest(strings.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut trace context gave %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestWireTraceCompatOldClientNewServer drives a current server with
// hand-written 'dcT1' frames — what an old client emits — and asserts
// the requests are served normally with no trace recorded.
func TestWireTraceCompatOldClientNewServer(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	so := obs.New()
	srv.Obs = so
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	go func() { _ = srv.ServeConn(sconn) }()

	for _, req := range []struct {
		op  byte
		arg uint32
	}{{OpManifest, 0}, {OpSegment, 0}} {
		if err := writeRequest(cconn, req.op, req.arg); err != nil {
			t.Fatal(err)
		}
		status, payload, err := readResponse(cconn)
		if err != nil || status != StatusOK || len(payload) == 0 {
			t.Fatalf("op %d: status=%d err=%v", req.op, status, err)
		}
	}
	if n := so.TraceBuf.Len(); n != 0 {
		t.Errorf("untraced requests recorded %d server spans, want 0", n)
	}
	// The new server's manifest advertises the capability old clients
	// simply ignore.
	wm, err := DecodeWireManifest(srv.videos[0].manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !wm.Trace {
		t.Error("server manifest does not advertise trace support")
	}
}

// serveOldWire is a server from before the traced frame existed: it
// understands exactly 9-byte 'dcT1' frames and fails the test if
// anything else arrives.
func serveOldWire(t *testing.T, conn net.Conn, manifest, segment []byte) {
	for {
		var buf [reqFrameBytes]byte
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			return
		}
		if [4]byte(buf[:4]) != protoMagic {
			t.Errorf("old server received frame with magic %x — a new client must stay on dcT1", buf[:4])
			return
		}
		var payload []byte
		switch buf[4] {
		case OpManifest:
			payload = manifest
		case OpSegment:
			payload = segment
		}
		if err := writeResponse(conn, StatusOK, payload); err != nil {
			return
		}
	}
}

// TestWireTraceCompatNewClientOldServer runs a current client — with an
// active trace span — against a pre-trace server and asserts the client
// never emits a traced frame, because the old manifest carries no
// capability flag.
func TestWireTraceCompatNewClientOldServer(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := DecodeWireManifest(srv.videos[0].manifest)
	if err != nil {
		t.Fatal(err)
	}
	wm.Trace = false // what an old server serves
	wm.Mux = false
	oldManifest, err := json.Marshal(wm)
	if err != nil {
		t.Fatal(err)
	}

	cconn, sconn := net.Pipe()
	defer cconn.Close()
	defer sconn.Close()
	go serveOldWire(t, sconn, oldManifest, srv.videos[0].segments[0])

	co := obs.New()
	client := NewClient(cconn)
	client.Obs = co
	ctx := obs.WithSpan(context.Background(), co.Start("session")) // active trace, but no wire capability
	got, err := client.ManifestCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace || client.TraceWire {
		t.Fatal("client negotiated tracing against an old server")
	}
	if _, err := client.SegmentCtx(ctx, 0); err != nil {
		t.Fatalf("segment fetch over plain frames: %v", err)
	}
	if client.BytesUp != 2*reqFrameBytes {
		t.Errorf("BytesUp = %d, want %d (two plain frames)", client.BytesUp, 2*reqFrameBytes)
	}
}

// TestTruncatedTraceHeaderIsBrokenConn injects a request-side truncation
// that cuts the frame inside the new trace-context bytes and asserts
// both sides take the pre-existing broken-connection path — the client
// reconnects and retries, the server sees io.ErrUnexpectedEOF — with no
// new failure mode.
func TestTruncatedTraceHeaderIsBrokenConn(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	so := obs.New()
	srv.Obs = so

	cut := true
	inj := faultnet.New(faultnet.Config{
		// 21 bytes: the full legacy header, the trace ID, plus 4 bytes
		// of span ID — the cut lands inside the trace-context fields.
		TruncateAfter: reqFrameBytes + 12,
		Decide: func(_ int, frame []byte) faultnet.Kind {
			if len(frame) == tracedReqFrameBytes && frame[4] == OpSegment && cut {
				cut = false
				return faultnet.KindTruncateRequest
			}
			return faultnet.KindNone
		},
	})

	srvErrs := make(chan error, 8)
	var conns []io.Closer
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	dial := func() (io.ReadWriter, error) {
		cconn, sconn := net.Pipe()
		go func() { srvErrs <- srv.ServeConn(sconn) }()
		conns = append(conns, cconn, sconn)
		return inj.Wrap(cconn), nil
	}

	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	co := obs.New()
	client := NewClient(conn)
	client.Obs = co
	client.Redial = dial
	client.Retry = RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1, Seed: 1}
	if _, err := client.ManifestCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !client.TraceWire {
		t.Fatal("capability not negotiated")
	}
	if _, err := client.SegmentCtx(obs.WithSpan(context.Background(), co.Start("fetch")), 0); err != nil {
		t.Fatalf("segment fetch did not survive the truncated frame: %v", err)
	}
	if client.Reconnects != 1 {
		t.Errorf("Reconnects = %d, want 1", client.Reconnects)
	}
	// The reconnect closed the half-written connection; its server
	// handler must report the standard mid-frame cut, nothing novel.
	select {
	case err := <-srvErrs:
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("server saw %v, want io.ErrUnexpectedEOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server handler never returned after truncated frame")
	}
	// The server never parsed the cut request, so no span exists for it:
	// only the successful retry is in the buffer.
	waitTraceLen(t, so.TraceBuf, 1)
	if n := so.TraceBuf.Len(); n != 1 {
		t.Errorf("server recorded %d spans, want 1 (the successful retry)", n)
	}
}

// TestRetryAttribution pins the tentpole's attribution story: a request
// dropped before the server, retried and then served yields ONE trace
// holding attempt-numbered client spans and exactly one server span,
// parented to the attempt that actually reached the server.
func TestRetryAttribution(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	so := obs.New()
	srv.Obs = so

	drop := true
	inj := faultnet.New(faultnet.Config{
		Decide: func(_ int, frame []byte) faultnet.Kind {
			if len(frame) == tracedReqFrameBytes && frame[4] == OpSegment && drop {
				drop = false
				return faultnet.KindDropRequest
			}
			return faultnet.KindNone
		},
	})
	d := &pipeDialer{t: t, srv: srv, inj: inj}
	defer d.cleanup()
	conn, err := d.dial()
	if err != nil {
		t.Fatal(err)
	}
	co := obs.New()
	client := NewClient(conn)
	client.Obs = co
	client.Redial = d.dial
	client.Retry = RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1, Seed: 1}
	client.TraceWire = true // capability pinned out of band; the manifest path has its own test
	root := co.Start("fetch_segment")
	if _, err := client.SegmentCtx(obs.WithSpan(context.Background(), root), 0); err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := root.Export()
	if len(tree.Children) != 2 {
		t.Fatalf("client trace has %d attempt spans, want 2: %+v", len(tree.Children), tree)
	}
	for i, ch := range tree.Children {
		if ch.Name != "attempt" || ch.Attrs["attempt"] != i {
			t.Errorf("child %d = %q attrs %v, want attempt-numbered", i, ch.Name, ch.Attrs)
		}
	}
	if tree.Children[0].Attrs["outcome"] != "error" || tree.Children[1].Attrs["outcome"] != "ok" {
		t.Errorf("attempt outcomes = %v / %v", tree.Children[0].Attrs, tree.Children[1].Attrs)
	}

	// Exactly one server span — the dropped request never reached the
	// server — and it hangs off the second attempt.
	waitTraceLen(t, so.TraceBuf, 1)
	spans := so.TraceBuf.Trace(root.TraceID())
	if len(spans) != 1 {
		t.Fatalf("server recorded %d spans for the trace, want exactly 1: %+v", len(spans), spans)
	}
	sp := spans[0]
	if sp.Name != "server.segment" || sp.TraceID != tree.TraceID {
		t.Errorf("server span = %q in trace %q, want server.segment in %q", sp.Name, sp.TraceID, tree.TraceID)
	}
	if sp.ParentID != tree.Children[1].SpanID {
		t.Errorf("server span parent %q != successful attempt span %q", sp.ParentID, tree.Children[1].SpanID)
	}
	if sp.Attrs["attempt"] != float64(1) && sp.Attrs["attempt"] != 1 {
		t.Errorf("server span attempt attr = %v, want 1", sp.Attrs["attempt"])
	}
}

// TestServerSpanBytesOut pins the server span's bytes_out attribute to
// the framing actually written: for a traced classic request and for a
// mux-framed one alike, it equals what the client counted coming down.
func TestServerSpanBytesOut(t *testing.T) {
	prep, _ := getFixture(t)
	for _, muxWire := range []bool{false, true} {
		srv, err := NewServer(prep)
		if err != nil {
			t.Fatal(err)
		}
		so := obs.New()
		srv.Obs = so
		cconn, sconn := net.Pipe()
		go func() { _ = srv.ServeConn(sconn) }()
		co := obs.New()
		client := NewClient(cconn)
		client.TraceWire, client.MuxWire = true, muxWire
		root := co.Start("fetch")
		if _, err := client.SegmentCtx(obs.WithSpan(context.Background(), root), 0); err != nil {
			t.Fatal(err)
		}
		waitTraceLen(t, so.TraceBuf, 1)
		spans := so.TraceBuf.Trace(root.TraceID())
		if len(spans) != 1 {
			t.Fatalf("mux=%v: server recorded %d spans, want 1", muxWire, len(spans))
		}
		if got, want := fmt.Sprint(spans[0].Attrs["bytes_out"]), fmt.Sprint(client.BytesDown); got != want {
			t.Errorf("mux=%v: server span bytes_out = %s, client received %s bytes", muxWire, got, want)
		}
		cconn.Close()
		sconn.Close()
	}
}

// TestEndToEndTraceRetrievable is the acceptance-criteria test: a full
// playback through faultnet (one dropped response forcing retry +
// redial), after which the trace ID recorded on the client side is
// retrievable from the server's /debug/trace?id= endpoint with every
// server span correctly parented to a client attempt span.
func TestEndToEndTraceRetrievable(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	so := obs.New()
	srv.Obs = so

	dropped := false
	inj := faultnet.New(faultnet.Config{
		Decide: func(_ int, frame []byte) faultnet.Kind {
			if len(frame) == tracedReqFrameBytes && frame[4] == OpSegment && !dropped {
				dropped = true
				return faultnet.KindDrop // response lost after the server served it
			}
			return faultnet.KindNone
		},
	})
	d := &pipeDialer{t: t, srv: srv, inj: inj}
	defer d.cleanup()
	conn, err := d.dial()
	if err != nil {
		t.Fatal(err)
	}
	co := obs.New()
	client := NewClient(conn)
	client.Obs = co
	client.Redial = d.dial
	client.Retry = RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1, Seed: 1}
	if _, _, err := client.PlayCtx(context.Background(), true); err != nil {
		t.Fatal(err)
	}

	traces := co.Trace.Traces()
	if len(traces) != 1 {
		t.Fatalf("client recorded %d traces, want 1", len(traces))
	}
	session := traces[0]
	if session.TraceID == "" {
		t.Fatal("client session trace has no ID")
	}
	clientSpanIDs := map[string]bool{}
	var collect func(obs.SpanJSON)
	collect = func(s obs.SpanJSON) {
		clientSpanIDs[s.SpanID] = true
		for _, c := range s.Children {
			collect(c)
		}
	}
	collect(session)

	// The client-recorded trace ID, queried against the *server's*
	// debug endpoint over HTTP — the cross-process lookup an operator
	// performs.
	waitTraceLen(t, so.TraceBuf, len(prep.Segments))
	rec := httptest.NewRecorder()
	so.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id="+session.TraceID, nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace?id= returned %d: %s", rec.Code, rec.Body.String())
	}
	var serverSpans []obs.SpanJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &serverSpans); err != nil {
		t.Fatal(err)
	}
	// Every traced request lands one server span: each segment, each
	// model download, plus the extra serve of the dropped response.
	if len(serverSpans) < len(prep.Segments) {
		t.Fatalf("server retained %d spans, want at least %d", len(serverSpans), len(prep.Segments))
	}
	for _, sp := range serverSpans {
		if sp.TraceID != session.TraceID {
			t.Errorf("server span %q in trace %q, want %q", sp.Name, sp.TraceID, session.TraceID)
		}
		if !clientSpanIDs[sp.ParentID] {
			t.Errorf("server span %q parent %q is not a client span", sp.Name, sp.ParentID)
		}
		if sp.InFlight {
			t.Errorf("server span %q still in flight", sp.Name)
		}
	}
	// The retried exchange is attributable: some server span carries a
	// non-zero attempt number.
	var retried bool
	for _, sp := range serverSpans {
		if a, ok := sp.Attrs["attempt"].(float64); ok && a > 0 {
			retried = true
		}
	}
	if !retried {
		t.Error("no server span carries a retry attempt number")
	}
}
