package main

// Every call into dcsr/internal/* lives in this file, behind small
// bench-local functions and type aliases. When the ROADMAP's
// API-collapsing PRs land (one playback engine, one wire frame) this is
// the only file that has to follow; the measurement logic in the other
// files never names an internal package.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"

	"dcsr/internal/cluster"
	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/device"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/tensor"
	"dcsr/internal/transport"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

type (
	frame       = video.YUV
	rgbFrame    = video.RGB
	prepared    = core.Prepared
	segment     = codec.Stream
	model       = edsr.Model
	modelConfig = edsr.Config
	manifest    = transport.WireManifest
	vaeModel    = vae.Model
)

var (
	modelDCSR1 = edsr.ConfigDCSR1
	modelTiny  = edsr.Config{Filters: 8, ResBlocks: 2}
)

// splitCfg and the VAE settings are those of cmd/dcsr-serve.
var (
	splitCfg = splitter.Config{Threshold: 14, MinLen: 3}
	vaeCfg   = vae.Config{ImgSize: 16, LatentDim: 8, BaseCh: 4}
)

func vaeTrainOpts(seed int64) vae.TrainOptions {
	return vae.TrainOptions{Epochs: 25, BatchSize: 4, Seed: seed}
}

func trainOpts(steps int) edsr.TrainOptions {
	return edsr.TrainOptions{Steps: steps, BatchSize: 2, PatchSize: 16}
}

// encoderQP is the reference low-quality stream setting.
const encoderQP = 42

// clip is the generated input video.
type clip struct {
	frames []*frame
	fps    int
}

// minCutDiff is the mean absolute luma change every scheduled cut of a
// generated clip must show — well clear of splitCfg.Threshold, so the
// number of shot segments (and with it I frames and clusters) is the
// same for every seed.
const minCutDiff = 20

// clipSeed maps the benchmark seed to the seed of its clip. The
// generator draws scene palettes at random and now and then puts two
// look-alike scenes side by side; such a clip loses a cut and with it a
// sixth of the work, so the seed steps on until every cut is visible.
// The search is input selection, not set-up: callers run it untimed.
func clipSeed(p profile, seed int64) int64 {
	for ; ; seed += 1_000_003 {
		c := generate(p, seed)
		frames := c.YUVFrames()
		visible, at := true, 0
		for _, cue := range c.Sched[:len(c.Sched)-1] {
			at += cue.Frames
			visible = visible && video.MeanAbsDiff(frames[at-1], frames[at]) >= minCutDiff
		}
		if visible {
			return seed
		}
	}
}

func generate(p profile, clipSeed int64) *video.Clip {
	gc := video.GenreConfig(video.GenreNews, p.w, p.h, clipSeed)
	gc.TotalCues, gc.MinFrames, gc.MaxFrames = p.cues, p.minFrames, p.maxFrames
	return video.Generate(gc)
}

// genClip generates the clip of a seed clipSeed returned.
func genClip(p profile, clipSeed int64) *clip {
	c := generate(p, clipSeed)
	return &clip{frames: c.YUVFrames(), fps: c.FPS}
}

// prepareStream runs the publisher pipeline. gateFrames > 0 turns on the
// int8 and delta stages with that many gate frames per cluster.
func prepareStream(ctx context.Context, c *clip, p profile, seed int64, steps, gateFrames int) (*prepared, error) {
	return core.PrepareCtx(ctx, c.frames, c.fps, core.ServerConfig{
		QP:          encoderQP,
		Split:       splitCfg,
		VAE:         vaeCfg,
		VAETrain:    vaeTrainOpts(seed),
		MicroConfig: p.model,
		Train:       trainOpts(steps),
		Quant:       core.QuantConfig{Enabled: gateFrames > 0, MaxFrames: gateFrames},
		Delta:       core.DeltaConfig{Enabled: gateFrames > 0, MaxFrames: gateFrames},
		Seed:        seed,
	})
}

// streamFacts are the counts the self-checks and per-layer metrics read
// off a prepared stream.
type streamFacts struct {
	frames, iFrames, segments, clusters int
	int8Models, deltaModels             int
	videoBytes, modelBytes              int
	trainGFLOP                          float64
}

func factsOf(p *prepared) streamFacts {
	f := streamFacts{
		frames:     p.Stream.FrameCount(),
		iFrames:    p.Stream.CountType(codec.FrameI),
		segments:   len(p.Segments),
		clusters:   p.K,
		videoBytes: p.Manifest.TotalVideoBytes(),
		modelBytes: p.Manifest.TotalModelBytes(),
		trainGFLOP: p.TrainFLOPs / 1e9,
	}
	for _, sm := range p.Models {
		if sm.Quant != nil && sm.Quant.Int8OK {
			f.int8Models++
		}
		if sm.Delta != nil && sm.Delta.DeltaOK {
			f.deltaModels++
		}
	}
	return f
}

// ---- origin ----

type origin struct {
	srv  *transport.Server
	addr string
	done chan error
}

func newServer(p *prepared) (*transport.Server, error) { return transport.NewServer(p) }

// listenAndServe starts srv on a loopback port.
func listenAndServe(srv *transport.Server) (*origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &origin{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { o.done <- srv.Serve(ln) }()
	return o, nil
}

// close stops the server and waits for its accept loop to end.
func (o *origin) close() error {
	err := o.srv.Close()
	<-o.done
	return err
}

// dial opens one loopback connection, throttled to bps bytes per second
// when bps > 0.
func dial(addr string, bps float64) (io.ReadWriter, io.Closer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	if bps > 0 {
		return transport.NewThrottledConn(conn, bps), conn, nil
	}
	return conn, conn, nil
}

// ---- the product's own playback loop ----

// sessionStats is what one PlayCtx session reports.
type sessionStats struct {
	frames                             int
	enhanced, enhancedInt8, degraded   int
	videoBytes, modelBytes, deltaBytes int
	cacheHits, modelDownloads          int
	cacheBytes                         int64
	faults                             int // retries+timeouts+reconnects+sheds
}

func playSession(ctx context.Context, addr string, bps float64) ([]*frame, sessionStats, error) {
	rw, closer, err := dial(addr, bps)
	if err != nil {
		return nil, sessionStats{}, err
	}
	c := transport.NewClient(rw)
	frames, st, err := c.PlayCtx(ctx, true)
	if cerr := closer.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, sessionStats{}, err
	}
	return frames, sessionStats{
		frames:   len(frames),
		enhanced: st.Enhanced, enhancedInt8: st.EnhancedInt8, degraded: st.DegradedSegments,
		videoBytes: st.VideoBytes, modelBytes: st.ModelBytes, deltaBytes: st.DeltaModelBytes,
		cacheHits: st.CacheHits, modelDownloads: st.ModelDownloads, cacheBytes: st.CacheBytes,
		faults: c.Retries + c.Timeouts + c.Reconnects + c.Sheds,
	}, nil
}

// ---- the bench-driven walk: the same steps through the mux client ----

type muxSession struct {
	mc *transport.MuxClient
}

// dialMux dials and negotiates; the manifest arrives with the probe.
func dialMux(addr string, bps float64) (*muxSession, error) {
	mc, err := transport.DialMux(func() (io.ReadWriter, error) {
		rw, _, err := dial(addr, bps)
		return rw, err
	})
	if err != nil {
		return nil, err
	}
	return &muxSession{mc: mc}, nil
}

func (s *muxSession) manifest() *manifest { return s.mc.Manifest() }

func (s *muxSession) segmentData(ctx context.Context, i int) ([]byte, error) {
	return s.mc.Do(ctx, transport.OpSegment, uint32(i), 0)
}

// fetchModel downloads (or assembles from backbone+delta) one micro
// model.
func (s *muxSession) fetchModel(ctx context.Context, wm *manifest, label int) (*model, error) {
	m, _, err := s.mc.ModelData(ctx, 0, wm, label, wm.MicroConfig)
	return m, err
}

// traffic reports requests' byte and fault counters.
func (s *muxSession) traffic() (bytesDown int64, faults int) {
	st := s.mc.Stats()
	return st.BytesDown, st.Retries + st.Timeouts + st.Reconnects + st.Sheds
}

func (s *muxSession) close() error { return s.mc.Close() }

func unmarshalSegment(data []byte) (*segment, error) { return codec.Unmarshal(data) }

// firstFrameOnly keeps the leading I frame, for the start-up measurement.
func firstFrameOnly(s *segment) *segment {
	return &segment{W: s.W, H: s.H, FPS: s.FPS, Frames: s.Frames[:1]}
}

// joinSegment is where the start-up measurement joins the stream: the
// first segment whose model ships as a delta, so that on a model-stream
// manifest every seed pays for the same downloads (segment + backbone +
// delta — the dearer of the two cases); segment 0 otherwise.
func joinSegment(wm *manifest) int {
	delta := map[int]bool{}
	for _, mi := range wm.Models {
		delta[mi.Label] = mi.Delta
	}
	for i, seg := range wm.Segments {
		if delta[seg.ModelLabel] {
			return i
		}
	}
	return 0
}

// int8Scales returns the activation scales the manifest advertises,
// keyed by model label.
func int8Scales(wm *manifest) map[int][]float32 {
	out := map[int][]float32{}
	for _, mi := range wm.Models {
		if mi.Int8 && len(mi.ActScales) > 0 {
			out[mi.Label] = mi.ActScales
		}
	}
	return out
}

func armInt8(m *model, scales []float32) error { return m.CalibrateFromScales(scales) }

// decodeSegment decodes sub as PlayCtx does. around, when non-nil, is
// called once per I frame with the enhancement as its argument, so the
// caller can time it.
func decodeSegment(sub *segment, m *model, around func(enhance func())) (frames []*frame, enhanced, int8 int, err error) {
	dec := codec.Decoder{Mode: codec.PropagateDelta}
	if m != nil {
		dec.Enhancer = codec.PrecisionEnhancerFunc(func(_ int, f *frame) (out *frame, prec codec.Precision) {
			run := func() {
				if m.Int8Ready() {
					out, prec = m.EnhanceYUVInt8(f), codec.PrecisionInt8
				} else {
					out, prec = m.EnhanceYUV(f), codec.PrecisionFloat32
				}
			}
			if around != nil {
				around(run)
			} else {
				run()
			}
			return out, prec
		})
	}
	frames, err = dec.Decode(sub)
	return frames, dec.Stats.Enhanced, dec.Stats.EnhancedInt8, err
}

// decodePlain decodes the whole published stream without enhancement.
func decodePlain(p *prepared) ([]*frame, error) {
	var dec codec.Decoder
	return dec.Decode(p.Stream)
}

// ---- classic request/response client for the origin workload ----

type fetchClient struct {
	c      *transport.Client
	closer io.Closer
}

func dialFetch(addr string) (*fetchClient, error) {
	rw, closer, err := dial(addr, 0)
	if err != nil {
		return nil, err
	}
	return &fetchClient{c: transport.NewClient(rw), closer: closer}, nil
}

func (f *fetchClient) manifest(ctx context.Context) (*manifest, error) { return f.c.ManifestCtx(ctx) }

func (f *fetchClient) segment(ctx context.Context, i int) (*segment, error) {
	return f.c.SegmentCtx(ctx, i)
}

func (f *fetchClient) model(ctx context.Context, wm *manifest, label int) (*model, int, error) {
	return f.c.ModelCtx(ctx, label, wm.MicroConfig)
}

func (f *fetchClient) traffic() (bytesDown int64, faults int) {
	return int64(f.c.BytesDown), f.c.Retries + f.c.Timeouts + f.c.Reconnects + f.c.Sheds
}

func (f *fetchClient) close() error { return f.closer.Close() }

// ---- output checks ----

// digestFrames is the SHA-256 of every plane of every frame.
func digestFrames(frames []*frame) string {
	h := sha256.New()
	for _, f := range frames {
		fmt.Fprintf(h, "%dx%d", f.W, f.H)
		for _, plane := range [][]byte{f.Y, f.U, f.V} {
			h.Write(plane) //lint:allow errcheck hash.Hash.Write never returns an error
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// meanPSNR is the mean luma PSNR of got against the source frames.
func meanPSNR(orig, got []*frame) float64 {
	var sum float64
	for i := range got {
		sum += quality.PSNRYUV(orig[i], got[i])
	}
	return sum / float64(len(got))
}

// trainedPSNR scores the publisher's output: the mean PSNR of one I
// frame per cluster against its pristine original, enhanced by the
// cluster's model and left as decoded.
func trainedPSNR(p *prepared) (enhanced, low float64) {
	n := 0
	seen := map[int]bool{}
	for si, label := range p.Assign {
		sm := p.Models[label]
		if sm == nil || seen[label] {
			continue
		}
		seen[label] = true
		enhanced += quality.PSNR(p.OrigIFrames[si], sm.Model.Enhance(p.LowIFrames[si]))
		low += quality.PSNR(p.OrigIFrames[si], p.LowIFrames[si])
		n++
	}
	return enhanced / float64(n), low / float64(n)
}

// segmentBytesMatch reports whether a fetched segment is byte-identical
// to the one the publisher produced.
func segmentBytesMatch(p *prepared, i int, got *segment) bool {
	want, err := p.SegmentStream(i)
	return err == nil && bytes.Equal(want.Marshal(), got.Marshal())
}

// modelBytesMatch reports whether a fetched model carries the
// publisher's weights.
func modelBytesMatch(p *prepared, label int, got *model) bool {
	sm := p.Models[label]
	return sm != nil && bytes.Equal(sm.Bytes, nn.EncodeWeights(got.Params()))
}

// ---- standalone calls on the workload's own payloads and shapes ----

// wireProbe times the origin's payload handling outside the server.
type wireProbe struct {
	p   *prepared
	enc []byte
}

func newWireProbe(p *prepared) (*wireProbe, error) {
	w := &wireProbe{p: p}
	return w, w.encodeManifest()
}

func (w *wireProbe) encodeManifest() (err error) {
	w.enc, err = transport.EncodeWireManifest(w.p.FPS, w.p.MicroConfig, w.p.Manifest)
	return err
}

func (w *wireProbe) decodeManifest() error {
	_, err := transport.DecodeWireManifest(w.enc)
	return err
}

// segmentPayload is SegmentStream+Marshal for segment i.
func (w *wireProbe) segmentPayload(i int) ([]byte, error) {
	sub, err := w.p.SegmentStream(i)
	if err != nil {
		return nil, err
	}
	return sub.Marshal(), nil
}

// weightProbe times the nn weight formats on the stream's real models.
type weightProbe struct {
	cfg      modelConfig
	full     []byte // one model's complete payload
	backbone *model
	target   *model
	delta    []byte // nil when the stream ships no delta
}

func newWeightProbe(p *prepared) (*weightProbe, error) {
	w := &weightProbe{cfg: p.MicroConfig}
	for label := 0; label < p.K; label++ {
		sm := p.Models[label]
		if sm == nil {
			continue
		}
		if w.full == nil {
			w.full, w.target = sm.Bytes, sm.Model
		}
		if sm.Delta != nil && sm.Delta.DeltaOK {
			w.backbone, w.target, w.delta = p.Models[sm.Delta.BackboneLabel].Model, sm.Model, sm.Delta.Bytes
		}
	}
	if w.full == nil {
		return nil, fmt.Errorf("bench: stream has no model")
	}
	return w, nil
}

func (w *weightProbe) hasDelta() bool { return w.delta != nil }

func (w *weightProbe) loadWeights() error {
	m, err := edsr.New(w.cfg, 0)
	if err != nil {
		return err
	}
	return nn.LoadWeights(bytes.NewReader(w.full), m.Params())
}

func (w *weightProbe) encodeWeights() { nn.EncodeWeights(w.target.Params()) }

func (w *weightProbe) encodeDelta() error {
	_, err := nn.EncodeWeightsDelta(w.backbone.Params(), w.target.Params())
	return err
}

// applyDelta is the client's assembly: apply, re-encode, digest.
func (w *weightProbe) applyDelta() error {
	m, err := edsr.New(w.cfg, 0)
	if err != nil {
		return err
	}
	if err := nn.ApplyWeightsDelta(w.backbone.Params(), w.delta, m.Params()); err != nil {
		return err
	}
	sha256.Sum256(nn.EncodeWeights(m.Params()))
	return nil
}

// enhanceProbe splits one I-frame enhancement into its parts.
type enhanceProbe struct {
	m    *model
	low  *rgbFrame
	yuv  *frame
	int8 bool
}

// newEnhanceProbe picks the first cluster's model and I frame; int8
// selects the quantized path (the model must have passed the gate).
func newEnhanceProbe(p *prepared, int8 bool) (*enhanceProbe, error) {
	label := p.Assign[0]
	sm := p.Models[label]
	if sm == nil {
		return nil, fmt.Errorf("bench: segment 0 has no model")
	}
	// A private copy: calibration state and buffers stay out of the
	// prepared stream the server is holding.
	m, err := edsr.New(p.MicroConfig, 0)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadWeights(bytes.NewReader(sm.Bytes), m.Params()); err != nil {
		return nil, err
	}
	if int8 {
		if sm.Quant == nil || !sm.Quant.Int8OK {
			return nil, fmt.Errorf("bench: model %d did not pass the int8 gate", label)
		}
		if err := m.CalibrateFromScales(sm.Quant.ActScales); err != nil {
			return nil, err
		}
	}
	low := p.LowIFrames[0]
	return &enhanceProbe{m: m, low: low, yuv: low.ToYUV(), int8: int8}, nil
}

func (e *enhanceProbe) forward() {
	x := edsr.ToTensor(e.low)
	if e.int8 {
		e.m.ForwardInferenceInt8(x)
	} else {
		e.m.ForwardInference(x)
	}
}

// tensorize is the part of Enhance around the forward pass.
func (e *enhanceProbe) tensorize() { edsr.FromTensor(edsr.ToTensor(e.low)) }

func (e *enhanceProbe) enhance() {
	if e.int8 {
		e.m.EnhanceInt8(e.low)
	} else {
		e.m.Enhance(e.low)
	}
}

func (e *enhanceProbe) enhanceYUV() {
	if e.int8 {
		e.m.EnhanceYUVInt8(e.yuv)
	} else {
		e.m.EnhanceYUV(e.yuv)
	}
}

func (e *enhanceProbe) calibrate() error { return e.m.Calibrate([]*rgbFrame{e.low}) }

func (e *enhanceProbe) gflop() float64 { return e.m.InferenceFLOPs(e.low.W, e.low.H) / 1e9 }

// profileGFLOPs is the analytic device model's figure the measured
// enhance_gflops sits beside.
func profileGFLOPs() float64 { return device.JetsonNX.SRThroughput / 1e9 }

// withProcs runs fn with the kernel pool resized to n cores.
func withProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	tensor.ShutdownPool() // the pool sizes itself on next use
	fn()
	runtime.GOMAXPROCS(prev)
	tensor.ShutdownPool()
}

func poolWorkers() int { return tensor.PoolWorkers() }

// kernelProbe holds the body-convolution operands (16→16 3×3 in the
// reference profile) at frame size and at training-patch size.
type kernelProbe struct {
	spec             tensor.ConvSpec
	w, h             int
	x, wt, bias, out *tensor.Tensor
	xq, wq           []int8
	scales           []float32
	px, pgy          *tensor.Tensor // batch-2 training patch and its upstream gradient
	gw, gb           *tensor.Tensor
	ma, mb, mo       []float32
	mm, mk, mn       int
}

func newKernelProbe(p profile) *kernelProbe {
	rng := rand.New(rand.NewSource(1))
	c := p.model.Filters
	k := &kernelProbe{spec: tensor.ConvSpec{InC: c, OutC: c, K: 3, Stride: 1, Pad: 1}, w: p.w, h: p.h}
	k.x = tensor.New(1, c, p.h, p.w)
	k.x.Randn(rng, 1)
	k.wt = tensor.New(c, c, 3, 3)
	k.wt.Randn(rng, 0.1)
	k.bias = tensor.New(c)
	k.xq = make([]int8, k.x.Len())
	tensor.QuantizeInt8Into(k.xq, k.x.Data, 127/k.x.MaxAbs())
	k.wq = make([]int8, k.wt.Len())
	tensor.QuantizeInt8Into(k.wq, k.wt.Data, 127/k.wt.MaxAbs())
	k.scales = make([]float32, c)
	for i := range k.scales {
		k.scales[i] = k.x.MaxAbs() * k.wt.MaxAbs() / (127 * 127)
	}
	const batch, patch = 2, 16
	k.px = tensor.New(batch, c, patch, patch)
	k.px.Randn(rng, 1)
	k.pgy = tensor.New(batch, c, patch, patch)
	k.pgy.Randn(rng, 1)
	k.gw, k.gb = tensor.New(c, c, 3, 3), tensor.New(c)
	k.mm, k.mk, k.mn = c, c*9, p.w*p.h
	k.ma, k.mb, k.mo = make([]float32, k.mm*k.mk), make([]float32, k.mk*k.mn), make([]float32, k.mm*k.mn)
	for i := range k.ma {
		k.ma[i] = float32(rng.NormFloat64())
	}
	for i := range k.mb {
		k.mb[i] = float32(rng.NormFloat64())
	}
	return k
}

// bodyGFLOP is the operation count of one body convolution at frame size.
func (k *kernelProbe) bodyGFLOP() float64 {
	return 2 * float64(k.spec.K*k.spec.K*k.spec.InC*k.spec.OutC) * float64(k.w*k.h) / 1e9
}

func (k *kernelProbe) convF32() { k.out = tensor.Conv2DInfer(k.x, k.wt, k.bias, k.spec, true, k.out) }

func (k *kernelProbe) convInt8() {
	k.out = tensor.Conv2DInferInt8(k.xq, 1, k.spec.InC, k.h, k.w, k.wq, k.scales, k.bias.Data, k.spec, true, k.out)
}

func (k *kernelProbe) matmul() { tensor.MatMul(k.ma, k.mb, k.mo, k.mm, k.mk, k.mn) }

// convTrain runs one training forward and backward on the patch batch
// and returns nothing; the caller times the two halves through fwd/bwd.
func (k *kernelProbe) convTrainFwd() [][]float32 {
	_, cols := tensor.Conv2DForward(k.px, k.wt, k.bias, k.spec)
	return cols
}

func (k *kernelProbe) convTrainBwd(cols [][]float32) {
	tensor.Conv2DBackward(k.pgy, cols, k.px.Shape, k.wt, k.gw, k.gb, k.spec)
}

// stageProbe replays the publisher's stages one public call at a time.
type stageProbe struct {
	c       *clip
	p       *prepared
	seed    int64
	trainee *model // kept across train calls, so a second call runs warm
}

func (s *stageProbe) split() int { return len(splitter.Split(s.c.frames, splitCfg)) }

// encode encodes the clip as the publisher does.
func (s *stageProbe) encode() (*segment, error) {
	forceI := splitter.ForceIFlags(len(s.c.frames), s.p.Segments)
	return codec.Encode(s.c.frames, forceI, s.c.fps, codec.EncoderConfig{QP: encoderQP})
}

func (s *stageProbe) decode(st *segment) error {
	var dec codec.Decoder
	_, err := dec.Decode(st)
	return err
}

// vaeTrain returns the trained feature extractor.
func (s *stageProbe) vaeTrain() (*vae.Model, error) {
	vm, err := vae.New(vaeCfg, s.seed+1)
	if err != nil {
		return nil, err
	}
	_, err = vm.Train(s.p.OrigIFrames, vaeTrainOpts(s.seed))
	return vm, err
}

func (s *stageProbe) vaeFeatures(vm *vae.Model) {
	for _, f := range s.p.OrigIFrames {
		vm.Features(f)
	}
}

func (s *stageProbe) iFrames() int { return len(s.p.OrigIFrames) }

func (s *stageProbe) selectK() error {
	if len(s.p.Features) < 3 {
		return nil // the pipeline skips clustering below three segments
	}
	big, err := edsr.New(s.p.BigModel, 0)
	if err != nil {
		return err
	}
	small, err := edsr.New(s.p.MicroConfig, 0)
	if err != nil {
		return err
	}
	_, _, err = cluster.SelectK(s.p.Features, big.SizeBytes(), small.SizeBytes())
	return err
}

// train runs steps optimizer steps of one cluster's training.
func (s *stageProbe) train(steps int) error {
	var pairs []edsr.Pair
	for si, a := range s.p.Assign {
		if a == s.p.Assign[0] {
			pairs = append(pairs, edsr.Pair{Low: s.p.LowIFrames[si], High: s.p.OrigIFrames[si]})
		}
	}
	if s.trainee == nil {
		m, err := edsr.New(s.p.MicroConfig, s.seed+100)
		if err != nil {
			return err
		}
		s.trainee = m
	}
	opts := trainOpts(steps)
	opts.Seed = s.seed + 200
	_, err := s.trainee.Train(pairs, opts)
	return err
}
