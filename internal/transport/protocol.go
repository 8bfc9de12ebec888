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
// Every exchange is one fixed-size request frame followed by one
// length-prefixed response. A plain request is exactly 9 bytes:
//
//	magic 'dcT1' (4) | opcode (1) | big-endian uint32 arg (4)
//
// where opcode is OpManifest, OpSegment, OpModel or OpVideos and arg is
// the segment index or model label (ignored for OpManifest/OpVideos). A
// traced request is the same frame under magic 'dcT2' followed by a
// 17-byte trace context —
//
//	magic 'dcT2' (4) | opcode (1) | arg (4) | trace ID (8) | parent span ID (8) | attempt (1)
//
// — which lets the server join the client's trace (see TraceContext).
// A multiplexed request is the third generation, magic 'dcT3', and is
// always exactly 34 bytes:
//
//	magic 'dcT3' (4) | opcode (1) | arg (4) | video ID (4) | request ID (4) |
//	trace ID (8) | parent span ID (8) | attempt (1)
//
// The video ID routes the request to one of the hosted videos (0 is the
// default video, so a mux frame with video 0 behaves exactly like a
// plain frame); the request ID is an opaque client token echoed in the
// response header, which is what makes pipelining possible: many mux
// requests may be in flight on one connection and the server may answer
// them out of order. A 'dcT3' request is answered with a 9-byte mux
// response header — request ID (4) | status (1) | length (4) — while
// 'dcT1'/'dcT2' requests keep the classic 5-byte header — status (1) |
// length (4) — so every protocol generation interoperates on one port. A
// connection must not mix classic and mux framing with responses
// outstanding: classic responses carry no ID, so interleaving them with
// out-of-order mux responses would be ambiguous. Clients here switch to
// mux framing for a connection at negotiation time and stay on it.
//
// Each magic doubles as a capability switch: a server that understands
// 'dcT2' advertises WireManifest.Trace, one that understands 'dcT3'
// advertises WireManifest.Mux (and serves OpVideos), and a client only
// emits the newer frames after seeing the flag, so old-client↔new-server
// and new-client↔old-server pairs interoperate on plain 'dcT1' frames.
//
// Payloads are capped at maxPayload. A non-OK status usually carries no
// payload; the one exception is StatusRetryAfter, whose 4-byte payload is
// the server's backoff hint in milliseconds (see AdmissionConfig and
// IsRetryAfter). Because classic frames carry no sequence numbers, a
// short read or dropped response desynchronizes the stream irrecoverably:
// the Client therefore marks its connection broken on any
// transport-level error and redials (Client.Redial) rather than
// attempting to resynchronize. A frame cut inside the trace-context
// bytes is the same failure mode: the server sees io.ErrUnexpectedEOF
// from the frame read and drops the connection, exactly as for a short
// 'dcT1' frame.
//
// # Client concurrency contract
//
// A Client owns exactly one connection and issues requests strictly
// sequentially; it is not safe for concurrent use. This mirrors a player's
// fetch loop (the paper's Algorithm 1 walks segments in order) and keeps
// the framing trivially correct — at most one request is ever in flight.
// Open multiple Clients for parallel sessions, or share one MuxClient —
// which is safe for concurrent use and pipelines requests on a single
// connection — among many sessions; the Server handles each connection
// in its own goroutine and each pipelined request in a bounded worker.
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
	// OpModel keeps serving every model complete, which is how pre-
	// model-stream clients (and assembly fallback) interoperate.
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
	reqFrameBytes       = 9  // magic(4) + opcode(1) + arg(4)
	tracedReqFrameBytes = 26 // reqFrameBytes + traceID(8) + spanID(8) + attempt(1)
	muxReqFrameBytes    = 34 // magic(4) + opcode(1) + arg(4) + video(4) + reqID(4) + traceID(8) + spanID(8) + attempt(1)
	respFrameBytes      = 5  // status(1) + length(4)
	muxRespFrameBytes   = 9  // reqID(4) + status(1) + length(4)
)

var (
	protoMagic  = [4]byte{'d', 'c', 'T', '1'}
	tracedMagic = [4]byte{'d', 'c', 'T', '2'}
	muxMagic    = [4]byte{'d', 'c', 'T', '3'}
)

// TraceContext is the trace identity a traced ('dcT2') request carries:
// which distributed trace the request belongs to, the client-side span
// that issued this attempt (the server span's parent), and the 0-based
// retry attempt number. The zero value — in particular TraceID == 0 —
// means "no trace", which is also how a plain 'dcT1' frame parses.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Attempt uint8
}

// frameBytes is the on-the-wire size of a request carrying (or not
// carrying) this trace context.
func (tc TraceContext) frameBytes() int64 {
	if tc.TraceID != 0 {
		return tracedReqFrameBytes
	}
	return reqFrameBytes
}

// WireManifest is the JSON document served for OpManifest: the byte-level
// manifest plus everything a client needs to decode and enhance.
type WireManifest struct {
	FPS         int                  `json:"fps"`
	MicroConfig edsr.Config          `json:"micro_config"`
	Segments    []stream.SegmentInfo `json:"segments"`
	Models      []stream.ModelInfo   `json:"models"`
	// Trace advertises that the server understands traced ('dcT2')
	// request frames. A manifest from an older server decodes with
	// Trace == false, keeping a newer client on plain frames.
	Trace bool `json:"trace,omitempty"`
	// Mux advertises that the server understands multiplexed ('dcT3')
	// request frames, serves OpVideos, and may answer any request with
	// StatusRetryAfter. A manifest from an older server decodes with
	// Mux == false, keeping a newer client on classic framing and
	// treating every rejection as terminal.
	Mux bool `json:"mux,omitempty"`
	// Backbone advertises the model stream: the video's models ship as
	// one shared backbone (served by OpBackbone) plus per-cluster deltas
	// (OpModelDelta) for every model entry flagged Delta. It doubles as
	// the capability switch — a manifest from an older server (or a video
	// prepared without delta encoding) decodes with Backbone == nil and
	// the client fetches every model complete via OpModel, exactly as
	// before.
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
	wm := WireManifest{FPS: fps, MicroConfig: micro, Segments: m.Segments, Trace: true, Mux: true, Backbone: m.Backbone}
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
	// ID is the video's routing handle for mux frames; ID 0 is the
	// server's default video, the one classic clients get.
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

// writeRequest frames a plain 'dcT1' request: magic, opcode byte, uint32
// argument.
func writeRequest(w io.Writer, op byte, arg uint32) error {
	var buf [reqFrameBytes]byte
	copy(buf[:4], protoMagic[:])
	buf[4] = op
	binary.BigEndian.PutUint32(buf[5:], arg)
	_, err := w.Write(buf[:])
	return err
}

// writeRequestTraced frames a traced 'dcT2' request carrying tc. The
// whole frame goes out in one Write so the fault layer treats it as one
// request.
func writeRequestTraced(w io.Writer, op byte, arg uint32, tc TraceContext) error {
	var buf [tracedReqFrameBytes]byte
	copy(buf[:4], tracedMagic[:])
	buf[4] = op
	binary.BigEndian.PutUint32(buf[5:], arg)
	binary.BigEndian.PutUint64(buf[9:], tc.TraceID)
	binary.BigEndian.PutUint64(buf[17:], tc.SpanID)
	buf[25] = tc.Attempt
	_, err := w.Write(buf[:])
	return err
}

// writeRequestMux frames a multiplexed 'dcT3' request routed to video,
// tagged with the client-chosen request ID that the server echoes back.
// The whole frame goes out in one Write so the fault layer treats it as
// one request.
func writeRequestMux(w io.Writer, op byte, arg, video, id uint32, tc TraceContext) error {
	var buf [muxReqFrameBytes]byte
	copy(buf[:4], muxMagic[:])
	buf[4] = op
	binary.BigEndian.PutUint32(buf[5:], arg)
	binary.BigEndian.PutUint32(buf[9:], video)
	binary.BigEndian.PutUint32(buf[13:], id)
	binary.BigEndian.PutUint64(buf[17:], tc.TraceID)
	binary.BigEndian.PutUint64(buf[25:], tc.SpanID)
	buf[33] = tc.Attempt
	_, err := w.Write(buf[:])
	return err
}

// wireRequest is one parsed request frame of any protocol generation.
// Video, ID and Mux are meaningful only for 'dcT3' frames; a classic
// frame parses with Mux false and video/ID zero, which routes it to the
// default video.
type wireRequest struct {
	Op    byte
	Arg   uint32
	Video uint32
	ID    uint32
	Mux   bool
	TC    TraceContext
}

// readRequest parses a plain, traced or multiplexed request frame; a
// plain frame (and a traced frame with trace ID zero) yields the zero
// TraceContext. io.EOF is returned as-is so servers can treat a clean
// close between requests as normal termination; a connection cut
// mid-frame — including inside the trace-context or mux bytes —
// surfaces as a wrapped io.ErrUnexpectedEOF, the ordinary
// broken-connection path.
func readRequest(r io.Reader) (wireRequest, error) {
	var req wireRequest
	var buf [muxReqFrameBytes]byte
	if _, err := io.ReadFull(r, buf[:reqFrameBytes]); err != nil {
		if errors.Is(err, io.EOF) {
			return req, io.EOF
		}
		return req, fmt.Errorf("transport: reading request: %w", err)
	}
	switch [4]byte(buf[:4]) {
	case protoMagic:
		req.Op = buf[4]
		req.Arg = binary.BigEndian.Uint32(buf[5:])
	case tracedMagic:
		if _, err := io.ReadFull(r, buf[reqFrameBytes:tracedReqFrameBytes]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return req, fmt.Errorf("transport: reading trace context: %w", err)
		}
		req.Op = buf[4]
		req.Arg = binary.BigEndian.Uint32(buf[5:])
		req.TC.TraceID = binary.BigEndian.Uint64(buf[9:])
		req.TC.SpanID = binary.BigEndian.Uint64(buf[17:])
		req.TC.Attempt = buf[25]
	case muxMagic:
		if _, err := io.ReadFull(r, buf[reqFrameBytes:muxReqFrameBytes]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return req, fmt.Errorf("transport: reading mux frame: %w", err)
		}
		req.Mux = true
		req.Op = buf[4]
		req.Arg = binary.BigEndian.Uint32(buf[5:])
		req.Video = binary.BigEndian.Uint32(buf[9:])
		req.ID = binary.BigEndian.Uint32(buf[13:])
		req.TC.TraceID = binary.BigEndian.Uint64(buf[17:])
		req.TC.SpanID = binary.BigEndian.Uint64(buf[25:])
		req.TC.Attempt = buf[33]
	default:
		return req, fmt.Errorf("transport: bad request magic %x", buf[:4])
	}
	return req, nil
}

// writeResponse frames a response: status byte + uint32 length + payload.
func writeResponse(w io.Writer, status byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = status
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
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
func readResponse(r io.Reader) (status byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("transport: reading response header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("transport: response of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("transport: reading response payload: %w", err)
	}
	return hdr[0], payload, nil
}

// writeResponseMux frames a multiplexed response: the echoed request ID,
// status byte, uint32 length, then the payload. The 9-byte header goes
// out in one Write.
func writeResponseMux(w io.Writer, id uint32, status byte, payload []byte) error {
	var hdr [muxRespFrameBytes]byte
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

// readResponseMux parses a multiplexed response frame, enforcing the
// payload bound.
func readResponseMux(r io.Reader) (id uint32, status byte, payload []byte, err error) {
	var hdr [muxRespFrameBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("transport: reading mux response header: %w", err)
	}
	id = binary.BigEndian.Uint32(hdr[:4])
	n := binary.BigEndian.Uint32(hdr[5:])
	if n > maxPayload {
		return 0, 0, nil, fmt.Errorf("transport: response of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("transport: reading mux response payload: %w", err)
	}
	return id, hdr[4], payload, nil
}
