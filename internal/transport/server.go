package transport

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dcsr/internal/core"
	"dcsr/internal/obs"
)

// hostedVideo is one registered prepared stream: its encoded manifest,
// segment sub-streams, model payloads, and directory entry. All fields
// are immutable after registration.
type hostedVideo struct {
	manifest []byte
	segments [][]byte
	models   map[uint32][]byte
	// deltas serve the model stream's OpModelDelta (the backbone is its
	// label's models entry); empty for videos prepared without delta
	// encoding, whose clients fetch every model via OpModel.
	deltas map[uint32][]byte
	info   WireVideo
}

// Server serves any number of prepared dcSR streams to any number of
// concurrent clients, routed by content digest. It is safe for
// concurrent use: registration may interleave with serving, and each
// registered video's state is immutable.
//
// Requests address videos by ID from the OpVideos directory — 0, what a
// client that never selects gets, is the first one registered — and may
// be pipelined; see the package documentation for the wire contract.
type Server struct {
	// Obs records transport_requests_total, transport_not_found_total,
	// transport_shed_total, transport_bytes_in/out_total, the
	// per-message-type latency histograms
	// transport_{manifest,segment,model,directory,modeldelta}_seconds
	// (each exporting its cumulative buckets), and the
	// transport_open_conns, transport_videos, transport_inflight and
	// transport_inflight_peak gauges. Traced requests additionally record
	// one server span each on Obs.Trace, retrievable by trace ID via the
	// debug sidecar's /debug/trace?id= endpoint. Its Log receives
	// per-connection errors, rejections and debug lines. nil disables all
	// of it.
	Obs *obs.Obs
	// Admission bounds concurrent work before the server sheds load with
	// StatusRetryAfter; the zero value admits everything. It is read when
	// the first connection arrives — set it before calling Serve or
	// ServeConn.
	Admission AdmissionConfig

	mu        sync.Mutex
	videos    []*hostedVideo
	byDigest  map[string]uint32
	directory []byte
	adm       *admission
	ln        net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	// admitHold, when set, is called for every admitted request while its
	// admission slot is held, before the response is written. Tests use
	// it to pin the server at a known inflight level; nil in production.
	admitHold func(req wireRequest)
	// gateNow overrides the admission token bucket's clock in tests.
	gateNow func() time.Time
}

// NewFleetServer returns an empty multi-video server; call Register for
// each prepared stream to host. Serving with no videos registered
// answers every data op with StatusNotFound.
func NewFleetServer() *Server {
	s := &Server{
		byDigest: make(map[string]uint32),
		conns:    make(map[net.Conn]struct{}),
	}
	empty, err := EncodeWireDirectory(&WireDirectory{})
	if err != nil {
		// An empty directory is a constant JSON document; its encoding
		// cannot fail.
		panic(err)
	}
	s.directory = empty
	return s
}

// NewServer packages a single prepared stream for serving: the manifest,
// every segment as an independently decodable sub-stream, and every
// micro model. It is Register on a fresh fleet server — the common
// single-video case.
func NewServer(p *core.Prepared) (*Server, error) {
	s := NewFleetServer()
	if _, err := s.Register(p); err != nil {
		return nil, err
	}
	return s, nil
}

// Register adds a prepared stream to the server and returns its hex
// SHA-256 content digest — the stable name clients select it by. The
// digest covers every segment payload and every model payload in label
// order, so two Prepare runs that produced identical bytes collapse to
// one registration error rather than two hosted copies.
//
// Registration validates the manifest (rejecting duplicate segment
// indices and mismatched model labels — the silent-shadowing bug class),
// and refuses a digest that is already hosted.
func (s *Server) Register(p *core.Prepared) (string, error) {
	if err := p.Manifest.Validate(); err != nil {
		return "", fmt.Errorf("transport: refusing to register: %w", err)
	}
	man, err := EncodeWireManifest(p.FPS, p.MicroConfig, p.Manifest)
	if err != nil {
		return "", err
	}
	v := &hostedVideo{manifest: man, models: make(map[uint32][]byte), deltas: make(map[uint32][]byte)}
	hash := sha256.New()
	for i := range p.Segments {
		sub, err := p.SegmentStream(i)
		if err != nil {
			return "", fmt.Errorf("transport: packaging segment %d: %w", i, err)
		}
		data := sub.Marshal()
		v.segments = append(v.segments, data)
		//lint:allow errcheck hash.Hash.Write is documented to never return an error
		hash.Write(data)
	}
	for _, label := range p.Manifest.ModelLabels() {
		if label < 0 {
			continue
		}
		sm, ok := p.Models[label]
		if !ok {
			return "", fmt.Errorf("transport: manifest model %d has no weights", label)
		}
		var lbl [4]byte
		binary.BigEndian.PutUint32(lbl[:], uint32(label))
		//lint:allow errcheck hash.Hash.Write is documented to never return an error
		hash.Write(lbl[:])
		//lint:allow errcheck hash.Hash.Write is documented to never return an error
		hash.Write(sm.Bytes)
		v.models[uint32(label)] = sm.Bytes
		if sm.Delta != nil && sm.Delta.DeltaOK {
			v.deltas[uint32(label)] = sm.Delta.Bytes
		}
	}
	digest := hex.EncodeToString(hash.Sum(nil))

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byDigest[digest]; dup {
		return "", fmt.Errorf("transport: video %s already registered", digest)
	}
	id := uint32(len(s.videos))
	v.info = WireVideo{
		ID:         id,
		Digest:     digest,
		FPS:        p.FPS,
		Segments:   len(p.Manifest.Segments),
		Models:     len(v.models),
		VideoBytes: int64(p.Manifest.TotalVideoBytes()),
		ModelBytes: int64(p.Manifest.TotalModelBytes()),
	}
	s.videos = append(s.videos, v)
	s.byDigest[digest] = id
	dir := WireDirectory{Videos: make([]WireVideo, 0, len(s.videos))}
	for _, hv := range s.videos {
		dir.Videos = append(dir.Videos, hv.info)
	}
	enc, err := EncodeWireDirectory(&dir)
	if err != nil {
		// Roll back so a half-registered video is never served.
		s.videos = s.videos[:id]
		delete(s.byDigest, digest)
		return "", err
	}
	s.directory = enc
	s.Obs.Gauge("transport_videos").Set(int64(len(s.videos)))
	s.Obs.Logger().Debug("transport: video registered", "id", id, "digest", digest,
		"segments", v.info.Segments, "models", v.info.Models)
	return digest, nil
}

// Videos returns the current directory of hosted videos in registration
// order (index == video ID).
func (s *Server) Videos() []WireVideo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WireVideo, 0, len(s.videos))
	for _, v := range s.videos {
		out = append(out, v.info)
	}
	return out
}

// serveState snapshots everything a request handler needs under one lock
// acquisition: the video table, encoded directory, and admission state.
func (s *Server) serveState() (videos []*hostedVideo, directory []byte, adm *admission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adm == nil {
		s.adm = newAdmission(s.Admission)
	}
	return s.videos, s.directory, s.adm
}

// Serve accepts connections on l until Close is called. It always returns
// a non-nil error; after Close it returns net.ErrClosed.
//
// When AdmissionConfig.MaxConns is set and reached, an excess connection
// is still accepted but its first request is answered with
// StatusRetryAfter and the connection is closed — a typed rejection the
// client can back off from, rather than a silent refusal.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//lint:allow errcheck conn lost the accept-vs-Close race and was never served; the shutdown is already reported via net.ErrClosed
			conn.Close()
			return net.ErrClosed
		}
		over := s.Admission.MaxConns > 0 && len(s.conns) >= s.Admission.MaxConns
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.Obs.Gauge("transport_open_conns").Add(1)
		s.Obs.Logger().Debug("transport: conn accepted", "remote", conn.RemoteAddr(), "over_capacity", over)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				//lint:allow errcheck handler teardown: ServeConn already surfaced any read/write failure, and a close error on a drained conn is unactionable
				conn.Close()
				s.Obs.Gauge("transport_open_conns").Add(-1)
			}()
			var err error
			if over {
				err = s.rejectConn(conn)
			} else {
				err = s.ServeConn(conn)
			}
			if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Obs.Logger().Error("transport: conn failed", "remote", conn.RemoteAddr(), "err", err)
			}
		}()
	}
}

// rejectConn answers one request with StatusRetryAfter and returns,
// closing the over-capacity connection after a single typed rejection.
func (s *Server) rejectConn(conn io.ReadWriter) error {
	_, _, adm := s.serveState()
	var frame reqFrame
	req, err := frame.read(conn)
	if err != nil {
		return err
	}
	s.Obs.Counter("transport_shed_total").Inc()
	s.Obs.Logger().Warn("transport: conn over capacity, shedding", "op", opName(req.Op))
	return writeResponse(conn, req.ID, StatusRetryAfter, retryAfterPayload(adm.cfg.RetryAfter))
}

// connMetrics is the per-connection bundle of metric handles, resolved
// once per connection rather than per request. Literal names keep the
// metric surface statically pinned to docs/OPERATIONS.md; nil Obs yields
// nil no-op handles.
type connMetrics struct {
	reqCtr      *obs.Counter
	nfCtr       *obs.Counter
	shedCtr     *obs.Counter
	inCtr       *obs.Counter
	outCtr      *obs.Counter
	inflight    *obs.Gauge
	inflightPk  *obs.Gauge
	opHists     map[byte]*obs.Histogram
	unknownHist *obs.Histogram
}

func (s *Server) connMetrics() *connMetrics {
	return &connMetrics{
		reqCtr:     s.Obs.Counter("transport_requests_total"),
		nfCtr:      s.Obs.Counter("transport_not_found_total"),
		shedCtr:    s.Obs.Counter("transport_shed_total"),
		inCtr:      s.Obs.Counter("transport_bytes_in_total"),
		outCtr:     s.Obs.Counter("transport_bytes_out_total"),
		inflight:   s.Obs.Gauge("transport_inflight"),
		inflightPk: s.Obs.Gauge("transport_inflight_peak"),
		opHists: map[byte]*obs.Histogram{
			OpManifest:   s.Obs.Histogram("transport_manifest_seconds"),
			OpSegment:    s.Obs.Histogram("transport_segment_seconds"),
			OpModel:      s.Obs.Histogram("transport_model_seconds"),
			OpVideos:     s.Obs.Histogram("transport_directory_seconds"),
			OpModelDelta: s.Obs.Histogram("transport_modeldelta_seconds"),
		},
		unknownHist: s.Obs.Histogram("transport_unknown_seconds"),
	}
}

// connWriter serializes response writes on one connection: sheds from
// the read loop and responses from the request workers interleave on the
// same conn, so every write goes through one mutex. The first write
// error is kept and poisons the connection — later writes are dropped so
// handlers drain quickly once the conn is gone.
type connWriter struct {
	mu   sync.Mutex
	conn io.ReadWriter
	err  error
}

func (w *connWriter) write(fn func(io.Writer) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := fn(w.conn); err != nil {
		w.err = err
		return err
	}
	return nil
}

// ServeConn answers requests on a single connection until it closes. It
// is exported so tests and in-process clients can use net.Pipe.
//
// Every admitted request is served by its own worker, so pipelined
// requests may be answered out of order; the workers are bounded by
// admission (AdmissionConfig.MaxInflight), and ServeConn does not return
// until every one of them has finished.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	m := s.connMetrics()
	videos, _, adm := s.serveState()
	// Refresh here as well as in Register: the common wiring attaches Obs
	// after construction, so the gauge would otherwise stay unregistered.
	s.Obs.Gauge("transport_videos").Set(int64(len(videos)))
	gate := adm.gate(s.gateNow)
	cw := &connWriter{conn: conn}
	var wg sync.WaitGroup
	defer wg.Wait()
	var frame reqFrame // read into once per request, for the connection's life
	for {
		req, err := frame.read(conn)
		if err != nil {
			return err
		}
		m.reqCtr.Inc()
		m.inCtr.Add(reqFrameBytes)
		release, hint, ok := gate.admit()
		if !ok {
			m.shedCtr.Inc()
			s.Obs.Logger().Warn("transport: request shed", "op", opName(req.Op), "hint", hint)
			if _, err := s.respond(cw, m, req, StatusRetryAfter, retryAfterPayload(hint)); err != nil {
				return err
			}
			continue
		}
		wg.Add(1)
		go s.serveRequest(cw, m, adm, req, &wg, release)
	}
}

// serveRequest is the per-request worker: it serves one admitted request,
// then releases its admission slot and joins the connection's WaitGroup.
// The goleak analyzer resolves this named method to its declaration and
// verifies the completion signal lives here, in the body, not at the
// launch site.
func (s *Server) serveRequest(cw *connWriter, m *connMetrics, adm *admission, req wireRequest, wg *sync.WaitGroup, release func()) {
	defer wg.Done()
	defer release()
	s.handle(cw, m, adm, req)
}

// handle serves one admitted request end to end: resolve the video,
// look up the payload, stamp the trace span, and write the response
// through the connection's serialized writer. A failed write is kept by
// the connWriter, which drops every later response on the connection.
func (s *Server) handle(cw *connWriter, m *connMetrics, adm *admission, req wireRequest) {
	if s.admitHold != nil {
		s.admitHold(req)
	}
	inflight, peak := adm.snapshot()
	m.inflight.Set(int64(inflight))
	m.inflightPk.Set(int64(peak))
	var t0 time.Time
	if s.Obs != nil {
		t0 = time.Now()
	}
	// A traced request gets a server-side span joined to the client's
	// trace, retained on the tracer for /debug/trace?id= — this is
	// what lets an operator attribute a slow fetch to the serving side
	// after the fact.
	var span *obs.Span
	if req.TC.TraceID != 0 && s.Obs != nil {
		span = obs.JoinSpan("server."+opName(req.Op), req.TC.TraceID, req.TC.SpanID)
		span.Set("op", opName(req.Op))
		span.Set("arg", req.Arg)
		span.Set("attempt", int(req.TC.Attempt))
		span.Set("video", req.Video)
	}
	videos, directory, _ := s.serveState()
	// Every servable payload is non-empty, so a nil payload after the
	// lookup — unknown video, index or label, or an artifact this video
	// does not ship — is exactly StatusNotFound.
	var payload []byte
	status := byte(StatusOK)
	v := new(hostedVideo)
	if int(req.Video) < len(videos) {
		v = videos[req.Video]
	}
	switch req.Op {
	case OpVideos:
		payload = directory
	case OpManifest:
		payload = v.manifest
	case OpSegment:
		if int(req.Arg) < len(v.segments) {
			payload = v.segments[req.Arg]
		}
	case OpModel:
		payload = v.models[req.Arg]
	case OpModelDelta:
		payload = v.deltas[req.Arg]
	default:
		status = StatusBadReq
	}
	if payload == nil && status == StatusOK {
		status = StatusNotFound
		m.nfCtr.Inc()
	}
	if status != StatusOK {
		s.Obs.Logger().Warn("transport: request rejected", "op", opName(req.Op), "arg", req.Arg,
			"video", req.Video, "status", status)
	}
	n, err := s.respond(cw, m, req, status, payload)
	if span != nil {
		if err != nil {
			span.Set("status", "write_failed")
		} else {
			span.Set("status", int(status))
			span.Set("bytes_out", n)
		}
		span.End()
		s.Obs.RecordTrace(span)
	}
	if err == nil && s.Obs != nil {
		h, ok := m.opHists[req.Op]
		if !ok {
			h = m.unknownHist
		}
		h.Observe(time.Since(t0).Seconds())
	}
}

// respond writes one response and returns the bytes it put on the wire
// (header plus payload).
func (s *Server) respond(cw *connWriter, m *connMetrics, req wireRequest, status byte, payload []byte) (int, error) {
	n := respFrameBytes + len(payload)
	err := cw.write(func(w io.Writer) error { return writeResponse(w, req.ID, status, payload) })
	if err == nil {
		m.outCtr.Add(int64(n))
	}
	return n, err
}

// opName maps a protocol opcode to its stable metric-name component.
func opName(op byte) string {
	switch op {
	case OpManifest:
		return "manifest"
	case OpSegment:
		return "segment"
	case OpModel:
		return "model"
	case OpVideos:
		return "videos"
	case OpModelDelta:
		return "modeldelta"
	default:
		return "unknown"
	}
}

// Shutdown stops the listener and waits for in-flight connections to
// finish on their own — the graceful counterpart to Close. If ctx
// expires first, the remaining connections are force-closed (Close's
// behaviour), the drain completes, and ctx's error is returned. A client
// that simply stays connected counts as in-flight, so callers should
// always pass a context with a deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.wg.Wait()
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			//lint:allow errcheck force-closing stragglers past the drain deadline; their goroutines report the resulting errors
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close stops the listener, closes active connections and waits for
// handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		//lint:allow errcheck force-closing live conns to unblock handlers; their goroutines report the resulting errors, Close returns the listener's
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
