// Package transport serves and fetches dcSR artifacts over real network
// connections: a length-prefixed binary request/response protocol, a
// concurrent multi-video origin server with admission control, a
// sequential and a multiplexed client, and a token-bucket bandwidth
// throttler for emulating constrained links.
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
// byte accounting, decode), and the clients are its wire backends —
//
//	*Client / MuxClient.Video(id)  ──▶ stream.Fetcher ──▶ stream.Session
//	   exchange once (exchanger)   ◀── retrier.do: retry, backoff, reconnect
//
// Both implement stream.Fetcher by driving each request through the one
// retry loop (retrier.do); all they implement themselves is a single
// wire exchange. Client.PlayCtx is the engine over the sequential client;
// stream.Open(…, mux.Video(id), …) is the same over a shared multiplexed
// connection. Every client method that touches the network takes a
// context.
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
// the server's backoff hint in milliseconds (see AdmissionConfig and
// IsRetryAfter). A connection cut mid-frame surfaces on the server as
// io.ErrUnexpectedEOF from the frame read and the connection is dropped.
// The sequential Client does not resynchronize after a short read or a
// dropped response either: it marks its connection broken on any
// transport-level error and redials (Client.Redial).
//
// # Client concurrency contract
//
// A Client owns exactly one connection and issues requests strictly
// sequentially; it is not safe for concurrent use. This mirrors a player's
// fetch loop (the paper's Algorithm 1 walks segments in order): it is the
// one frame with at most one request outstanding. Open multiple Clients
// for parallel sessions, or share one MuxClient — the same frame
// pipelined, safe for concurrent use — among many sessions; the Server
// handles each connection in its own goroutine and each admitted request
// in a worker bounded by admission.
//
// # Fault tolerance and admission control
//
// Client.Retry (and MuxClient.Retry) configures retries with exponential
// backoff and jitter plus a per-request deadline; see RetryPolicy.
// Application-level failures (StatusNotFound, StatusBadReq) are never
// retried — only transport-level errors and timeouts are, after
// reconnecting through Client.Redial.
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
	// OpBackbone fetches the video's shared backbone weights (the model
	// stream's base payload, downloaded once per session); OpModelDelta
	// fetches model label's dcW5 delta against that backbone. Both answer
	// StatusNotFound when the video was prepared without delta encoding;
	// OpModel serves every model complete, which is what the assembly
	// fallback fetches.
	OpBackbone   = 5 // payload: none        → backbone serialized weights
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
	// one shared backbone (served by OpBackbone) plus per-cluster deltas
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
	for _, mi := range wm.Models {
		if seenModel[mi.Label] {
			return nil, fmt.Errorf("transport: manifest repeats model label %d", mi.Label)
		}
		seenModel[mi.Label] = true
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

// writeRequest frames req. The whole frame goes out in one Write so the
// fault layer treats it as one request.
func writeRequest(w io.Writer, req wireRequest) error {
	var buf [reqFrameBytes]byte
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

// readRequest reads one request frame. io.EOF is returned as-is so servers
// can treat a clean close between requests as normal termination; a
// connection cut mid-frame surfaces as a wrapped io.ErrUnexpectedEOF, the
// ordinary broken-connection path. The magic is checked as soon as it has
// arrived, so a peer speaking anything else is rejected without waiting
// for it to send a full frame's worth of bytes.
func readRequest(r io.Reader) (wireRequest, error) {
	var buf [reqFrameBytes]byte
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
// uint32 length, then the payload. The header goes out in one Write.
func writeResponse(w io.Writer, id uint32, status byte, payload []byte) error {
	var hdr [respFrameBytes]byte
	binary.BigEndian.PutUint32(hdr[:4], id)
	hdr[4] = status
	binary.BigEndian.PutUint32(hdr[5:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readResponse parses a response frame, enforcing the payload bound.
func readResponse(r io.Reader) (id uint32, status byte, payload []byte, err error) {
	var hdr [respFrameBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("transport: reading response header: %w", err)
	}
	id = binary.BigEndian.Uint32(hdr[:4])
	n := binary.BigEndian.Uint32(hdr[5:])
	if n > maxPayload {
		return 0, 0, nil, fmt.Errorf("transport: response of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("transport: reading response payload: %w", err)
	}
	return id, hdr[4], payload, nil
}
