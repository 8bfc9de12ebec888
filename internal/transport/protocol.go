// Package transport serves and fetches dcSR artifacts over real network
// connections: a length-prefixed binary request/response protocol, a
// concurrent multi-video origin server with admission control, a
// pipelined client, and a token-bucket bandwidth throttler for emulating
// constrained links.
//
// The paper's prototype pairs a streaming platform with SR-FFMPEG; this
// package is the equivalent delivery path. The paper's deployment sketch
// (§5) is a CDN-side service handing per-cluster micro models to many
// concurrent clients; Server hosts any number of prepared videos behind
// one endpoint, routed by content digest, and sheds load with typed
// retry-after rejections when over budget (see docs/SERVING.md for the
// operator view).
//
// # Clients
//
// Playback itself is not here: stream.Session is the one playback engine
// (manifest walk, model cache and assembly, int8 arming, degradation,
// byte accounting, decode), and Client is its wire backend —
//
//	Client.Video(id) ──▶ stream.Fetcher ──▶ stream.Session
//	  Client.do: retry, backoff ──▶ exchange: one pipelined request
//
// Video(id) implements stream.Fetcher by driving each request through
// the one retry loop (Client.do) over the one wire exchange. Playing a
// video is stream.Open(…, c.Video(id), opts); Client.PlayCtx is that with
// default options on the default video. Every client method that touches
// the network takes a context.
//
// # Wire protocol
//
// There is one wire generation: every exchange is one fixed-size request
// frame followed by one length-prefixed response. A request is exactly 34
// bytes, big-endian:
//
//	magic 'dcT3' (4) | opcode (1) | arg (4) | video ID (4) | request ID (4) |
//	trace ID (8) | parent span ID (8) | attempt (1)
//
// where opcode is one of the Op* constants and arg is the segment index or
// model label (ignored by ops that take none). The video ID routes the
// request to one of the hosted videos (0 is the default, the first one
// registered). The request ID is an opaque client token echoed in the
// response header, which is what makes pipelining possible: many requests
// may be in flight on one connection and the server may answer them out
// of order. The last three fields let the server join the client's trace
// (see TraceContext); trace ID 0 means the request is untraced. A response
// is a 9-byte header followed by the payload:
//
//	request ID (4) | status (1) | payload length (4) | payload
//
// Any other magic is a protocol error and the server closes the
// connection; there is no version negotiation and no capability flag.
//
// Payloads are capped at maxPayload. A non-OK status usually carries no
// payload; the one exception is StatusRetryAfter, whose 4-byte payload is
// the server's backoff hint in milliseconds (see AdmissionConfig; the
// Client backs off by at least it, RetryPolicy.ShedRetries times, and
// counts each in Client.Sheds). A connection cut mid-frame surfaces on the server as
// io.ErrUnexpectedEOF from the frame read and the connection is dropped.
// The Client does not resynchronize after a short read or a dropped
// response either: any transport-level error retires the connection,
// and the next request redials (Client.Redial).
//
// # Client concurrency contract
//
// A Client is safe for concurrent use. It owns one connection at a time
// and pipelines on it: every request is written as it arrives under its
// own ID, and one reader goroutine per connection hands each response to
// the request that asked for it. One caller walking segments in order
// (the paper's Algorithm 1) has one request outstanding; any number of
// sessions may share the client. The Server handles each connection in
// its own goroutine and each admitted request in a worker bounded by
// admission.
//
// # Fault tolerance and admission control
//
// Client.Retry configures retries with exponential backoff and jitter
// plus a per-request timeout; see RetryPolicy. Application-level failures
// (StatusNotFound, StatusBadReq) are never retried — only transport-level
// errors and timeouts are, on a connection redialed through Client.Redial
// whenever the old one failed or stalled (see Client for the timeout
// rule).
// StatusRetryAfter sits in between: it is a deterministic rejection (the
// connection stays synchronized) but a retryable one — clients honor the
// carried hint as a backoff floor and try again under a separate shed
// budget (RetryPolicy.ShedRetries). The internal/faultnet package
// injects deterministic faults beneath a Client for testing;
// docs/OPERATIONS.md describes the failure modes and the
// degraded-playback semantics end to end.
package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"slices"
	"sync"
	"time"

	"dcsr/internal/edsr"
	"dcsr/internal/stream"
)

// Opcodes of the request protocol.
const (
	OpManifest = 1 // payload: none          → JSON WireManifest
	OpSegment  = 2 // payload: segment index → marshaled codec.Stream
	OpModel    = 3 // payload: model label   → serialized weights (always complete)
	OpVideos   = 4 // payload: none          → JSON WireDirectory
	// OpModelDelta fetches model label's dcW5 delta against the video's
	// backbone, which is itself fetched as its label's OpModel. It answers
	// StatusNotFound when the video was prepared without delta encoding.
	OpModelDelta = 6 // payload: model label → dcW5 delta payload
)

// Response status codes.
const (
	StatusOK       = 0
	StatusNotFound = 1
	StatusBadReq   = 2
	// StatusRetryAfter is a typed admission rejection: the server is over
	// budget and shed the request deterministically. Its payload is a
	// 4-byte big-endian backoff hint in milliseconds; clients honor it as
	// a floor on their next backoff (see RetryPolicy.ShedRetries). Unlike
	// transport errors the connection stays synchronized, so no redial is
	// needed.
	StatusRetryAfter = 3
)

// maxPayload bounds a single response (64 MiB) so a corrupt or malicious
// length prefix cannot make the client allocate unbounded memory.
const maxPayload = stream.MaxArtifactBytes

// firstChunk is all respHeader.read allocates on the strength of a
// declared length alone (1 MiB, above every segment and model payload);
// past it the buffer grows with the bytes that actually arrive.
const firstChunk = 1 << firstChunkBits

const firstChunkBits = 20

// payloadPools recycles response buffers: pool k holds buffers of
// capacity 1<<k, for every power of two up to firstChunk.
var payloadPools [firstChunkBits + 1]sync.Pool

// payloadBuf returns a buffer of length n, 0 < n ≤ firstChunk, from the
// pool of the least power of two that holds n, or a new buffer of that
// capacity when the pool is empty. Its bytes are not cleared.
func payloadBuf(n int) []byte {
	k := bits.Len(uint(n - 1))
	if b, ok := payloadPools[k].Get().(*[]byte); ok {
		return (*b)[:n]
	}
	return make([]byte, n, 1<<k)
}

// recyclePayload hands b back to its pool once nothing will read it
// again. A buffer payloadBuf did not size — one that grew past
// firstChunk, or an empty one — is left to the collector.
func recyclePayload(b []byte) {
	c := cap(b)
	if c == 0 || c > firstChunk || c&(c-1) != 0 {
		return
	}
	b = b[:0]
	payloadPools[bits.Len(uint(c))-1].Put(&b)
}

// Framing sizes, used by both sides for byte accounting.
const (
	reqFrameBytes  = 34 // magic(4) + opcode(1) + arg(4) + video(4) + reqID(4) + traceID(8) + spanID(8) + attempt(1)
	respFrameBytes = 9  // reqID(4) + status(1) + length(4)
)

var reqMagic = [4]byte{'d', 'c', 'T', '3'}

// TraceContext is the trace identity a request carries: which distributed
// trace the request belongs to, the client-side span that issued this
// attempt (the server span's parent), and the 0-based retry attempt
// number. TraceID == 0 means "no trace".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Attempt uint8
}

// WireManifest is the JSON document served for OpManifest: the byte-level
// manifest plus everything a client needs to decode and enhance.
type WireManifest struct {
	FPS         int                  `json:"fps"`
	MicroConfig edsr.Config          `json:"micro_config"`
	Segments    []stream.SegmentInfo `json:"segments"`
	Models      []stream.ModelInfo   `json:"models"`
	// Backbone advertises the model stream: the video's models ship as
	// one shared backbone (its label's OpModel) plus per-cluster deltas
	// (OpModelDelta) for every model entry flagged Delta. A video prepared
	// without delta encoding has Backbone == nil and the client fetches
	// every model complete via OpModel.
	Backbone *stream.BackboneInfo `json:"backbone,omitempty"`
}

// Manifest converts the wire form back to a stream.Manifest.
func (wm *WireManifest) Manifest() *stream.Manifest {
	m := &stream.Manifest{Models: make(map[int]stream.ModelInfo, len(wm.Models)), Backbone: wm.Backbone}
	m.Segments = append(m.Segments, wm.Segments...)
	for _, mi := range wm.Models {
		m.Models[mi.Label] = mi
	}
	return m
}

// EncodeWireManifest serializes a manifest for OpManifest responses.
func EncodeWireManifest(fps int, micro edsr.Config, m *stream.Manifest) ([]byte, error) {
	wm := WireManifest{FPS: fps, MicroConfig: micro, Segments: m.Segments, Backbone: m.Backbone}
	for _, l := range m.ModelLabels() {
		wm.Models = append(wm.Models, m.Models[l])
	}
	return json.Marshal(wm)
}

// DecodeWireManifest parses an OpManifest payload. Duplicate segment
// indices or duplicate model labels are rejected here at the trust
// boundary: Manifest() keys models by label, so a duplicate would
// silently shadow an earlier entry and the client would enhance with the
// wrong weights.
func DecodeWireManifest(data []byte) (*WireManifest, error) {
	var wm WireManifest
	if err := json.Unmarshal(data, &wm); err != nil {
		return nil, fmt.Errorf("transport: bad manifest payload: %w", err)
	}
	seenSeg := make(map[int]bool, len(wm.Segments))
	for _, s := range wm.Segments {
		if seenSeg[s.Index] {
			return nil, fmt.Errorf("transport: manifest repeats segment index %d", s.Index)
		}
		seenSeg[s.Index] = true
	}
	seenModel := make(map[int]bool, len(wm.Models))
	for i, mi := range wm.Models {
		if seenModel[mi.Label] {
			return nil, fmt.Errorf("transport: manifest repeats model label %d", mi.Label)
		}
		seenModel[mi.Label] = true
		if len(mi.ActScales) == 0 {
			wm.Models[i].ActScales = nil // "act_scales":[] is no scales, as its re-encoding says
		}
	}
	return &wm, nil
}

// WireVideo is one hosted video's entry in the OpVideos directory:
// enough for a client to pick a video (by digest or position) and to
// budget the session before fetching the full manifest.
type WireVideo struct {
	// ID is the video's routing handle in request frames; ID 0 is the
	// server's default video.
	ID uint32 `json:"id"`
	// Digest is the hex SHA-256 content digest of the prepared video
	// (segment payloads plus model payloads), the stable name a client
	// selects by.
	Digest     string `json:"digest"`
	FPS        int    `json:"fps"`
	Segments   int    `json:"segments"`
	Models     int    `json:"models"`
	VideoBytes int64  `json:"video_bytes"`
	ModelBytes int64  `json:"model_bytes"`
}

// WireDirectory is the JSON document served for OpVideos: every video the
// server hosts, in registration order (so Videos[0] is the default).
type WireDirectory struct {
	Videos []WireVideo `json:"videos"`
}

// EncodeWireDirectory serializes a directory for OpVideos responses.
func EncodeWireDirectory(d *WireDirectory) ([]byte, error) {
	return json.Marshal(d)
}

// DecodeWireDirectory parses an OpVideos payload.
func DecodeWireDirectory(data []byte) (*WireDirectory, error) {
	var d WireDirectory
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("transport: bad directory payload: %w", err)
	}
	return &d, nil
}

// retryAfterPayload encodes an admission backoff hint as the 4-byte
// big-endian millisecond payload of a StatusRetryAfter response. Hints
// round up to a whole millisecond so a nonzero hint never encodes to
// zero, and saturate at ~49 days.
func retryAfterPayload(d time.Duration) []byte {
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms < 0 {
		ms = 0
	}
	if ms > 0xFFFFFFFF {
		ms = 0xFFFFFFFF
	}
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(ms))
	return buf[:]
}

// parseRetryAfter decodes a StatusRetryAfter payload; a malformed or
// absent payload yields zero, which clients treat as "no hint".
func parseRetryAfter(payload []byte) time.Duration {
	if len(payload) != 4 {
		return 0
	}
	return time.Duration(binary.BigEndian.Uint32(payload)) * time.Millisecond
}

// wireRequest is one request frame.
type wireRequest struct {
	Op    byte
	Arg   uint32
	Video uint32
	ID    uint32
	TC    TraceContext
}

// reqFrame holds one request frame's bytes. A connection owns the one
// it frames requests in, so framing a request allocates nothing.
type reqFrame [reqFrameBytes]byte

// write frames req into buf. The whole frame goes out in one Write so
// the fault layer treats it as one request.
func (buf *reqFrame) write(w io.Writer, req wireRequest) error {
	copy(buf[:4], reqMagic[:])
	buf[4] = req.Op
	binary.BigEndian.PutUint32(buf[5:], req.Arg)
	binary.BigEndian.PutUint32(buf[9:], req.Video)
	binary.BigEndian.PutUint32(buf[13:], req.ID)
	binary.BigEndian.PutUint64(buf[17:], req.TC.TraceID)
	binary.BigEndian.PutUint64(buf[25:], req.TC.SpanID)
	buf[33] = req.TC.Attempt
	_, err := w.Write(buf[:])
	return err
}

// parseRequest decodes one complete request frame; ok is false when frame
// is not exactly one frame under the request magic.
func parseRequest(frame []byte) (req wireRequest, ok bool) {
	if len(frame) != reqFrameBytes || [4]byte(frame[:4]) != reqMagic {
		return req, false
	}
	req.Op = frame[4]
	req.Arg = binary.BigEndian.Uint32(frame[5:])
	req.Video = binary.BigEndian.Uint32(frame[9:])
	req.ID = binary.BigEndian.Uint32(frame[13:])
	req.TC.TraceID = binary.BigEndian.Uint64(frame[17:])
	req.TC.SpanID = binary.BigEndian.Uint64(frame[25:])
	req.TC.Attempt = frame[33]
	return req, true
}

// PeekRequest reports the opcode and argument of a request frame as a
// client writes it — what a fault-injection hook or wire sniffer sitting
// under a client needs to pick its targets. ok is false for anything that
// is not exactly one request frame.
func PeekRequest(frame []byte) (op byte, arg uint32, ok bool) {
	req, ok := parseRequest(frame)
	return req.Op, req.Arg, ok
}

// read reads one request frame into buf. io.EOF is returned as-is so
// servers can treat a clean close between requests as normal
// termination; a connection cut mid-frame surfaces as a wrapped
// io.ErrUnexpectedEOF, the ordinary broken-connection path. The magic is
// checked as soon as it has arrived, so a peer speaking anything else is
// rejected without waiting for it to send a full frame's worth of bytes.
func (buf *reqFrame) read(r io.Reader) (wireRequest, error) {
	n, err := io.ReadAtLeast(r, buf[:], len(reqMagic))
	if errors.Is(err, io.EOF) {
		return wireRequest{}, io.EOF
	}
	if err == nil {
		if [4]byte(buf[:4]) != reqMagic {
			return wireRequest{}, fmt.Errorf("transport: bad request magic %x", buf[:4])
		}
		if _, err = io.ReadFull(r, buf[n:]); errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		return wireRequest{}, fmt.Errorf("transport: reading request: %w", err)
	}
	req, _ := parseRequest(buf[:])
	return req, nil
}

// writeResponse frames a response: the echoed request ID, status byte,
// uint32 length, then the payload. Header and payload go out as one
// net.Buffers, so a net.Conn that supports vectored writes (*net.TCPConn)
// sends the frame in one writev; any other writer (a faultnet wrapper, a
// pipe, a buffer) gets the header in one Write and the payload in a
// second, none for an empty payload. The bytes are the same either way.
func writeResponse(w io.Writer, id uint32, status byte, payload []byte) error {
	var hdr [respFrameBytes]byte
	binary.BigEndian.PutUint32(hdr[:4], id)
	hdr[4] = status
	binary.BigEndian.PutUint32(hdr[5:], uint32(len(payload)))
	frame := net.Buffers{hdr[:], payload}
	if len(payload) == 0 {
		frame = frame[:1]
	}
	_, err := frame.WriteTo(w)
	return err
}

// respHeader holds one response header's bytes, owned by the
// connection's reader.
type respHeader [respFrameBytes]byte

// read parses a response frame, its header into hdr, enforcing the
// payload bound. A header declaring a large payload costs at most
// firstChunk until the peer sends the bytes to fill it. The payload up
// to firstChunk is a pooled buffer (payloadBuf), filled once by the
// read: whoever consumes it last hands it back with recyclePayload, or
// keeps it for good. A longer payload grows past its class with the
// bytes that arrive and is never pooled.
func (hdr *respHeader) read(r io.Reader) (id uint32, status byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("transport: reading response header: %w", err)
	}
	id = binary.BigEndian.Uint32(hdr[:4])
	n := int(binary.BigEndian.Uint32(hdr[5:]))
	if n > maxPayload {
		return 0, 0, nil, fmt.Errorf("transport: response of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return id, hdr[4], []byte{}, nil
	}
	payload = payloadBuf(min(n, firstChunk))
	for read := 0; ; {
		m, err := io.ReadFull(r, payload[read:])
		if read += m; err != nil {
			recyclePayload(payload)
			return 0, 0, nil, fmt.Errorf("transport: reading response payload: %w", err)
		}
		if read == n {
			return id, hdr[4], payload, nil
		}
		grow := min(n-read, read)
		payload = slices.Grow(payload, grow)[:read+grow]
	}
}
