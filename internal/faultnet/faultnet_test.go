package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// respondingConn echoes a canned response for every request written,
// standing in for a request/response server.
type respondingConn struct {
	response string
	buf      bytes.Reader
}

func (r *respondingConn) Write(p []byte) (int, error) {
	r.buf.Reset([]byte(r.response))
	return len(p), nil
}

func (r *respondingConn) Read(p []byte) (int, error) { return r.buf.Read(p) }

func request(t *testing.T, conn io.ReadWriter) (string, error) {
	t.Helper()
	if _, err := conn.Write([]byte("req")); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := io.ReadAll(conn)
	return string(out), err
}

func TestPassthroughWhenZeroConfig(t *testing.T) {
	inj := New(Config{})
	conn := inj.Wrap(&respondingConn{response: "hello world"})
	for i := 0; i < 5; i++ {
		got, err := request(t, conn)
		if err != nil || got != "hello world" {
			t.Fatalf("request %d: got %q, err %v", i, got, err)
		}
	}
	if n := inj.Requests(); n != 5 {
		t.Errorf("Requests() = %d, want 5", n)
	}
	if c := inj.Counts(); c["none"] != 5 || len(c) != 1 {
		t.Errorf("Counts() = %v, want only none=5", c)
	}
}

func TestScriptedFaults(t *testing.T) {
	inj := New(Config{Script: map[int]Kind{
		1: KindDrop,
		2: KindError,
		3: KindTruncate,
	}, TruncateAfter: 4})
	conn := inj.Wrap(&respondingConn{response: "0123456789"})

	if got, err := request(t, conn); err != nil || got != "0123456789" {
		t.Fatalf("request 0 should pass: %q, %v", got, err)
	}
	if _, err := request(t, conn); !errors.Is(err, ErrInjected) {
		t.Fatalf("request 1 should drop, got err %v", err)
	}
	if _, err := request(t, conn); !errors.Is(err, ErrInjected) {
		t.Fatalf("request 2 should error, got err %v", err)
	}
	got, err := request(t, conn)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("request 3 should truncate, got err %v", err)
	}
	if got != "0123" {
		t.Fatalf("truncated response = %q, want first 4 bytes", got)
	}
	if got, err := request(t, conn); err != nil || got != "0123456789" {
		t.Fatalf("request 4 should pass again: %q, %v", got, err)
	}
	c := inj.Counts()
	if c["drop"] != 1 || c["error"] != 1 || c["truncate"] != 1 || c["none"] != 2 {
		t.Errorf("Counts() = %v", c)
	}
}

func TestDropKeepsFailingUntilNextRequest(t *testing.T) {
	inj := New(Config{Script: map[int]Kind{0: KindDrop}})
	conn := inj.Wrap(&respondingConn{response: "data"})
	if _, err := conn.Write([]byte("req")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	for i := 0; i < 3; i++ {
		if _, err := conn.Read(buf); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d after drop: err %v, want ErrInjected", i, err)
		}
	}
}

func TestDelayUsesSleeperOnce(t *testing.T) {
	inj := New(Config{Script: map[int]Kind{0: KindDelay}, Delay: 250 * time.Millisecond})
	var slept time.Duration
	inj.sleep = func(d time.Duration) { slept += d }
	conn := inj.Wrap(&respondingConn{response: "abcdef"})
	got, err := request(t, conn) // ReadAll issues several reads
	if err != nil || got != "abcdef" {
		t.Fatalf("delayed response corrupted: %q, %v", got, err)
	}
	if slept != 250*time.Millisecond {
		t.Errorf("slept %v, want exactly one 250ms delay", slept)
	}
}

func TestDeterministicAcrossInjectors(t *testing.T) {
	run := func() []string {
		inj := New(Config{Seed: 42, DropRate: 0.3, DelayRate: 0.2, ErrorRate: 0.1, Delay: time.Nanosecond})
		inj.sleep = func(time.Duration) {}
		conn := inj.Wrap(&respondingConn{response: "x"})
		var outcomes []string
		for i := 0; i < 40; i++ {
			_, err := request(t, conn)
			switch {
			case err == nil:
				outcomes = append(outcomes, "ok")
			default:
				outcomes = append(outcomes, err.Error())
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at request %d: %q vs %q", i, a[i], b[i])
		}
	}
	// With these rates over 40 requests, at least one fault and at least
	// one clean response must appear (deterministic given the seed).
	joined := strings.Join(a, "\n")
	if !strings.Contains(joined, "ok") || !strings.Contains(joined, "faultnet") {
		t.Fatalf("seed 42 schedule degenerate:\n%s", joined)
	}
}

func TestGlobalRequestIndexAcrossWraps(t *testing.T) {
	// The schedule follows the injector, not the connection: after a
	// "reconnect" (a fresh Wrap) the request index keeps counting.
	inj := New(Config{Script: map[int]Kind{1: KindDrop}})
	c1 := inj.Wrap(&respondingConn{response: "a"})
	if _, err := request(t, c1); err != nil {
		t.Fatalf("request 0: %v", err)
	}
	c2 := inj.Wrap(&respondingConn{response: "a"})
	if _, err := request(t, c2); !errors.Is(err, ErrInjected) {
		t.Fatalf("request 1 on fresh conn should drop, got %v", err)
	}
	if _, err := request(t, c2); err != nil {
		t.Fatalf("request 2: %v", err)
	}
}

func TestDecideOverridesEverything(t *testing.T) {
	var seen []int
	inj := New(Config{
		DropRate: 1, // would drop everything if rates applied
		Decide: func(idx int, frame []byte) Kind {
			seen = append(seen, idx)
			if string(frame) == "bad" {
				return KindDrop
			}
			return KindNone
		},
	})
	conn := inj.Wrap(&respondingConn{response: "ok"})
	if _, err := request(t, conn); err != nil {
		t.Fatalf("Decide=None request failed: %v", err)
	}
	if _, err := conn.Write([]byte("bad")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("Decide=Drop request survived: %v", err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Errorf("Decide saw indices %v, want [0 1]", seen)
	}
}

func TestCloseForwarding(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	conn := New(Config{}).Wrap(a)
	if err := conn.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("inner conn still open after Close")
	}
}

// TestRequestFaultWakesParkedRead pins what a pipelined reader needs: a
// read already parked in the wrapped connection when a request-side
// fault is decided returns at once with the injected fault, because the
// fault closes the connection under it.
func TestRequestFaultWakesParkedRead(t *testing.T) {
	for _, kind := range []Kind{KindDropRequest, KindTruncateRequest} {
		t.Run(kind.String(), func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			go io.Copy(io.Discard, b) // a server that reads and never answers
			conn := New(Config{Script: map[int]Kind{0: kind}}).Wrap(a)
			parked := make(chan error, 1)
			go func() {
				_, err := conn.Read(make([]byte, 8))
				parked <- err
			}()
			time.Sleep(10 * time.Millisecond) // let the read park in the pipe
			if _, err := conn.Write([]byte("request-frame")); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-parked:
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("parked read returned %v, want ErrInjected", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("parked read never woke after a request-side fault")
			}
		})
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindNone: "none", KindDrop: "drop", KindDelay: "delay",
		KindTruncate: "truncate", KindError: "error",
		KindDropRequest: "drop_request", KindTruncateRequest: "truncate_request",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// recordingConn captures every write so request-side faults can be
// checked against what actually reached "the server".
type recordingConn struct {
	writes [][]byte
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (r *recordingConn) Read(p []byte) (int, error) { return 0, io.EOF }

func TestDropRequestNeverReachesServer(t *testing.T) {
	inner := &recordingConn{}
	inj := New(Config{Script: map[int]Kind{0: KindDropRequest}})
	conn := inj.Wrap(inner)

	n, err := conn.Write([]byte("request-frame"))
	if err != nil || n != 13 {
		t.Fatalf("write = %d, %v; the drop must look like a successful send", n, err)
	}
	if len(inner.writes) != 0 {
		t.Fatalf("server received %d frames, want 0", len(inner.writes))
	}
	if _, err := conn.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after dropped request = %v, want ErrInjected", err)
	}
	// The next request passes through and its response is readable.
	if _, err := conn.Write([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if len(inner.writes) != 1 || string(inner.writes[0]) != "next" {
		t.Fatalf("server writes = %q, want only the second request", inner.writes)
	}
	if c := inj.Counts(); c["drop_request"] != 1 || c["none"] != 1 {
		t.Errorf("Counts() = %v", c)
	}
}

func TestTruncateRequestForwardsPrefixOnly(t *testing.T) {
	inner := &recordingConn{}
	inj := New(Config{Script: map[int]Kind{0: KindTruncateRequest}, TruncateAfter: 4})
	conn := inj.Wrap(inner)

	n, err := conn.Write([]byte("request-frame"))
	if err != nil || n != 13 {
		t.Fatalf("write = %d, %v; truncation must look like a successful send", n, err)
	}
	if len(inner.writes) != 1 || string(inner.writes[0]) != "requ" {
		t.Fatalf("server received %q, want the 4-byte prefix", inner.writes)
	}
	if _, err := conn.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after truncated request = %v, want ErrInjected", err)
	}
	if c := inj.Counts(); c["truncate_request"] != 1 {
		t.Errorf("Counts() = %v", c)
	}
}
