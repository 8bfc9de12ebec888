// Tests that pin the one wire format at the byte level: golden fixtures
// for a request frame and a response header, every truncation of a
// frame, rejection of the retired 'dcT1'/'dcT2' generations, and fuzz
// targets over both parsers.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The fixtures: one request and one response, as structs and as the exact
// bytes they must occupy on the wire.
var (
	goldenRequest = wireRequest{Op: OpModel, Arg: 7, Video: 2, ID: 0x01020304,
		TC: TraceContext{TraceID: 0xdeadbeef, SpanID: 0x1234, Attempt: 3}}
	goldenRequestBytes = unhex("64635433" + "03" + "00000007" + "00000002" + "01020304" +
		"00000000deadbeef" + "0000000000001234" + "03")
	goldenResponseBytes = unhex("01020304" + "01" + "00000002" + "6869") // ID, StatusNotFound, len 2, "hi"

	// What the retired generations put on the wire: a 9-byte plain frame
	// and a 26-byte traced one.
	dcT1Frame = unhex("64635431" + "02" + "0000002a")
	dcT2Frame = unhex("64635432" + "02" + "0000002a" + "00000000deadbeef" + "0000000000001234" + "01")
)

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestWireGolden pins both directions of both frames against the
// fixtures.
func TestWireGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRequest(&buf, goldenRequest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), goldenRequestBytes) || buf.Len() != reqFrameBytes {
		t.Fatalf("request frame = %x\nwant            %x", buf.Bytes(), goldenRequestBytes)
	}
	req, err := readRequest(bytes.NewReader(goldenRequestBytes))
	if err != nil || req != goldenRequest {
		t.Fatalf("readRequest(golden) = %+v, %v; want %+v", req, err, goldenRequest)
	}
	if op, arg, ok := PeekRequest(goldenRequestBytes); !ok || op != OpModel || arg != 7 {
		t.Errorf("PeekRequest(golden) = %d, %d, %v", op, arg, ok)
	}
	for _, notAFrame := range [][]byte{nil, goldenRequestBytes[:33], append(goldenRequestBytes[:34:34], 0), dcT1Frame, dcT2Frame} {
		if _, _, ok := PeekRequest(notAFrame); ok {
			t.Errorf("PeekRequest accepted %x", notAFrame)
		}
	}

	buf.Reset()
	if err := writeResponse(&buf, 0x01020304, StatusNotFound, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), goldenResponseBytes) || buf.Len() != respFrameBytes+2 {
		t.Fatalf("response = %x\nwant       %x", buf.Bytes(), goldenResponseBytes)
	}
	id, status, payload, err := readResponse(bytes.NewReader(goldenResponseBytes))
	if err != nil || id != 0x01020304 || status != StatusNotFound || string(payload) != "hi" {
		t.Fatalf("readResponse(golden) = %#x, %d, %q, %v", id, status, payload, err)
	}
}

// TestRequestCutAtEveryOffset: a stream that ends between requests is a
// clean io.EOF; one that ends anywhere inside a frame is the
// broken-connection error.
func TestRequestCutAtEveryOffset(t *testing.T) {
	if _, err := readRequest(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF itself, got %v", err)
	}
	for cut := 1; cut < reqFrameBytes; cut++ {
		_, err := readRequest(bytes.NewReader(goldenRequestBytes[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) || err == io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: want a wrapped io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// TestOldGenerationsRejected: a 'dcT1' or 'dcT2' frame is a bad magic like
// any other — rejected as soon as the magic has arrived, without waiting
// for a full frame's worth of bytes — and the server closes the
// connection without answering.
func TestOldGenerationsRejected(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	for name, frame := range map[string][]byte{"dcT1": dcT1Frame, "dcT2": dcT2Frame, "garbage": []byte("XXXXYYYYY")} {
		if _, err := readRequest(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "bad request magic") {
			t.Errorf("%s: readRequest = %v, want a bad-magic error", name, err)
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Errorf("%s: server answered %d bytes, err %v; want the connection closed unanswered", name, n, err)
		}
		conn.Close()
	}
}

// TestResponsePayloadBound: a response header claiming a gigantic payload
// is rejected before anything is allocated for it.
func TestResponsePayloadBound(t *testing.T) {
	oversized := unhex("00000001" + "00" + "ffffffff")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, payload, err := readResponse(bytes.NewReader(oversized))
	runtime.ReadMemStats(&after)
	if err == nil || payload != nil {
		t.Fatal("oversized response accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting an oversized response allocated %d bytes", grew)
	}
}

// TestResponseAllocFollowsBytes: a header that declares a large payload
// costs the client at most the first chunk until the bytes arrive — a
// 60 MiB declaration followed by EOF allocates under 2 MiB — while a
// payload past the first chunk still reads back whole.
func TestResponseAllocFollowsBytes(t *testing.T) {
	var hdr bytes.Buffer
	if err := writeResponse(&hdr, 1, StatusOK, nil); err != nil {
		t.Fatal(err)
	}
	declared := hdr.Bytes()
	binary.BigEndian.PutUint32(declared[5:], 60<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, payload, err := readResponse(bytes.NewReader(declared))
	runtime.ReadMemStats(&after)
	if err == nil || payload != nil {
		t.Fatal("a header with no payload behind it parsed")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Errorf("a 60 MiB declaration with nothing behind it allocated %d bytes", grew)
	}

	big := bytes.Repeat([]byte("0123456789abcdef"), (5*firstChunk/2)/16)
	var buf bytes.Buffer
	if err := writeResponse(&buf, 7, StatusOK, big); err != nil {
		t.Fatal(err)
	}
	if id, _, got, err := readResponse(&buf); err != nil || id != 7 || !bytes.Equal(got, big) {
		t.Fatalf("%d-byte payload read back as %d bytes, id %d, err %v", len(big), len(got), id, err)
	}
}

// FuzzReadRequest: any byte stream either fails to parse or yields the
// request its first 34 bytes encode — never a panic.
func FuzzReadRequest(f *testing.F) {
	f.Add(goldenRequestBytes)
	f.Add(goldenRequestBytes[:21])
	f.Add(dcT1Frame)
	f.Add(dcT2Frame)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readRequest(bytes.NewReader(data))
		op, arg, peeked := PeekRequest(data[:min(len(data), reqFrameBytes)])
		if err != nil {
			if peeked {
				t.Fatalf("readRequest rejected a frame PeekRequest parsed: %v", err)
			}
			return
		}
		if !peeked || op != req.Op || arg != req.Arg {
			t.Fatalf("readRequest = %+v, PeekRequest = %d, %d, %v", req, op, arg, peeked)
		}
		var buf bytes.Buffer
		if err := writeRequest(&buf, req); err != nil || !bytes.Equal(buf.Bytes(), data[:reqFrameBytes]) {
			t.Fatalf("parsed %+v re-encodes to %x, input was %x", req, buf.Bytes(), data[:reqFrameBytes])
		}
	})
}

// FuzzReadResponse: any byte stream either fails to parse or yields the
// response it encodes — never a panic, and nothing is read or allocated
// for a declared length over maxPayload.
func FuzzReadResponse(f *testing.F) {
	f.Add(goldenResponseBytes)
	f.Add(goldenResponseBytes[:respFrameBytes+1])
	f.Add(unhex("00000001" + "00" + "ffffffff"))
	f.Add(unhex("00000001" + "03" + "04000001")) // one byte over maxPayload
	f.Add(dcT1Frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		id, status, payload, err := readResponse(r)
		if len(data) >= respFrameBytes && binary.BigEndian.Uint32(data[5:]) > maxPayload &&
			(err == nil || r.Len() != len(data)-respFrameBytes) {
			t.Fatalf("oversized response: err %v, %d bytes consumed past the header", err, len(data)-respFrameBytes-r.Len())
		}
		if err != nil {
			if payload != nil {
				t.Fatalf("failed parse returned a %d-byte payload", len(payload))
			}
			return
		}
		var buf bytes.Buffer
		if err := writeResponse(&buf, id, status, payload); err != nil || !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("parsed response re-encodes to %x, input was %x", buf.Bytes(), data)
		}
	})
}
