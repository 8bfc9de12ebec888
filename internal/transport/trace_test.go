// Tests for wire-level trace propagation: fault behaviour of a request
// cut inside the trace fields, retry attribution, and the end-to-end
// client → server → /debug/trace?id= path over both wire backends.
// Everything here is meaningful under -race.
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"dcsr/internal/codec"
	"dcsr/internal/faultnet"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
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

// firstSegmentRequest returns a faultnet Decide hook that applies kind to the
// first OpSegment request it sees and lets everything else through.
func firstSegmentRequest(kind faultnet.Kind) func(int, []byte) faultnet.Kind {
	done := false
	return func(_ int, frame []byte) faultnet.Kind {
		if op, _, ok := PeekRequest(frame); ok && op == OpSegment && !done {
			done = true
			return kind
		}
		return faultnet.KindNone
	}
}

// TestTruncatedRequestIsBrokenConn injects a request-side truncation that
// cuts the frame inside the trace-context bytes and asserts both sides
// take the ordinary broken-connection path: the client reconnects and
// retries, the server sees io.ErrUnexpectedEOF.
func TestTruncatedRequestIsBrokenConn(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	so := obs.New()
	srv.Obs = so

	inj := faultnet.New(faultnet.Config{
		// 21 bytes: everything up to the trace ID plus 4 of its 8 bytes.
		TruncateAfter: 21,
		Decide:        firstSegmentRequest(faultnet.KindTruncateRequest),
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

	inj := faultnet.New(faultnet.Config{Decide: firstSegmentRequest(faultnet.KindDropRequest)})
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
// the framing actually written: on either client it equals what the
// client counted coming down for that request.
func TestServerSpanBytesOut(t *testing.T) {
	prep, _ := getFixture(t)
	for _, row := range []struct {
		name string
		// fetch requests segment 0 under ctx and returns the bytes the
		// client counted down for that one exchange.
		fetch func(t *testing.T, ctx context.Context, conn io.ReadWriter) int64
	}{
		{"sequential", func(t *testing.T, ctx context.Context, conn io.ReadWriter) int64 {
			client := NewClient(conn)
			if _, err := client.SegmentCtx(ctx, 0); err != nil {
				t.Fatal(err)
			}
			return int64(client.BytesDown)
		}},
		{"mux", func(t *testing.T, ctx context.Context, conn io.ReadWriter) int64 {
			mux, err := DialMux(func() (io.ReadWriter, error) { return conn, nil })
			if err != nil {
				t.Fatal(err)
			}
			before := mux.Stats().BytesDown
			if _, err := mux.Video(0).Fetch(ctx, stream.KindSegment, 0); err != nil {
				t.Fatal(err)
			}
			return mux.Stats().BytesDown - before
		}},
	} {
		srv, err := NewServer(prep)
		if err != nil {
			t.Fatal(err)
		}
		so := obs.New()
		srv.Obs = so
		cconn, sconn := net.Pipe()
		go func() { _ = srv.ServeConn(sconn) }()
		root := obs.New().Start("fetch")
		down := row.fetch(t, obs.WithSpan(context.Background(), root), cconn)
		waitTraceLen(t, so.TraceBuf, 1)
		spans := so.TraceBuf.Trace(root.TraceID())
		if len(spans) != 1 {
			t.Fatalf("%s: server recorded %d spans, want 1", row.name, len(spans))
		}
		if got, want := fmt.Sprint(spans[0].Attrs["bytes_out"]), fmt.Sprint(down); got != want {
			t.Errorf("%s: server span bytes_out = %s, client received %s bytes", row.name, got, want)
		}
		cconn.Close()
		sconn.Close()
	}
}

// TestEndToEndTraceRetrievable is the acceptance-criteria test, over both
// wire backends: a full playback through faultnet (one dropped response
// forcing retry + redial), after which the trace ID recorded on the
// client side is retrievable from the server's /debug/trace?id= endpoint
// with every server span — the manifest's included — correctly parented
// to a client attempt span.
func TestEndToEndTraceRetrievable(t *testing.T) {
	prep, _ := getFixture(t)
	retry := RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1, Seed: 1}
	for _, row := range []struct {
		name string
		play func(t *testing.T, d *pipeDialer, co *obs.Obs)
	}{
		{"sequential", func(t *testing.T, d *pipeDialer, co *obs.Obs) {
			conn, err := d.dial()
			if err != nil {
				t.Fatal(err)
			}
			client := NewClient(conn)
			client.Obs, client.Redial, client.Retry = co, d.dial, retry
			if _, _, err := client.PlayCtx(context.Background(), true); err != nil {
				t.Fatal(err)
			}
		}},
		{"mux", func(t *testing.T, d *pipeDialer, co *obs.Obs) {
			mux, err := DialMux(d.dial)
			if err != nil {
				t.Fatal(err)
			}
			defer mux.Close()
			mux.Obs, mux.Retry = co, retry
			root := co.Start("client_play")
			defer root.End()
			ctx := obs.WithSpan(context.Background(), root)
			data, err := mux.Do(ctx, OpManifest, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			wm, err := DecodeWireManifest(data)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := stream.Open(wm.Manifest(), wm.MicroConfig, mux.Video(0), stream.Options{
				Enhance: true, Int8: true, CacheBudget: -1, Propagation: codec.PropagateDelta, Obs: co,
			})
			if err != nil {
				t.Fatal(err)
			}
			sess.Trace = root
			if _, _, err := sess.Play(ctx); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv, err := NewServer(prep)
			if err != nil {
				t.Fatal(err)
			}
			so := obs.New()
			srv.Obs = so
			// The response is lost after the server served it.
			inj := faultnet.New(faultnet.Config{Decide: firstSegmentRequest(faultnet.KindDrop)})
			d := &pipeDialer{t: t, srv: srv, inj: inj}
			defer d.cleanup()
			co := obs.New()
			row.play(t, d, co)

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
			// performs. Every request of the session lands one server span:
			// the manifest, each segment, each model download, plus the extra
			// serve of the dropped response.
			waitTraceLen(t, so.TraceBuf, 1+len(prep.Segments))
			rec := httptest.NewRecorder()
			so.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id="+session.TraceID, nil))
			if rec.Code != 200 {
				t.Fatalf("/debug/trace?id= returned %d: %s", rec.Code, rec.Body.String())
			}
			var serverSpans []obs.SpanJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &serverSpans); err != nil {
				t.Fatal(err)
			}
			if len(serverSpans) < 1+len(prep.Segments) {
				t.Fatalf("server retained %d spans, want at least %d", len(serverSpans), 1+len(prep.Segments))
			}
			// The retried exchange is attributable: some server span carries
			// a non-zero attempt number.
			var retried, manifest bool
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
				if a, ok := sp.Attrs["attempt"].(float64); ok && a > 0 {
					retried = true
				}
				if sp.Name == "server.manifest" {
					manifest = true
				}
			}
			if !retried {
				t.Error("no server span carries a retry attempt number")
			}
			if !manifest {
				t.Error("the session's manifest request left no server span")
			}
		})
	}
}
