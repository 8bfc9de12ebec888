// Package edsr implements the Enhanced Deep Super-Resolution network
// (Lim et al., CVPRW 2017) that dcSR trains its micro models with: a head
// convolution, a stack of residual blocks with a global skip connection,
// and a pixel-shuffle upsampling tail. Model capacity is controlled by the
// two hyperparameters the paper's Appendix A.1 grid-searches — the number
// of convolution filters (n_f) and the number of ResBlocks (n_RB) — which
// determine both model size (Table 1) and inference FLOPs.
//
// Scale 1 configures the network as a same-resolution quality enhancer
// (compression-artifact removal, the mode integrated into the decoder
// loop); scale 2 or 4 adds sub-pixel upsampling stages.
package edsr

import (
	"fmt"
	"math"
	"math/rand"

	"dcsr/internal/nn"
	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// Config selects an EDSR architecture.
type Config struct {
	Filters   int     // n_f: convolution filters per layer
	ResBlocks int     // n_RB: residual blocks in the body
	Scale     int     // 1 (quality enhancement), 2, or 4 (upscaling)
	ResScale  float32 // residual scaling; 0 means 1.0
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.ResScale == 0 {
		c.ResScale = 1.0
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Filters < 1 {
		return fmt.Errorf("edsr: Filters must be >= 1, got %d", c.Filters)
	}
	if c.ResBlocks < 1 {
		return fmt.Errorf("edsr: ResBlocks must be >= 1, got %d", c.ResBlocks)
	}
	if c.Scale != 1 && c.Scale != 2 && c.Scale != 4 {
		return fmt.Errorf("edsr: Scale must be 1, 2 or 4, got %d", c.Scale)
	}
	return nil
}

// SizeBytes is what Model.SizeBytes reports for a model of this
// configuration, computed without building one — so a configuration that
// arrived over the network can be bounded before it allocates anything.
// Out-of-range dimensions report math.MaxInt64.
func (c Config) SizeBytes() int64 {
	// One 3×3 convolution serializes as two length-prefixed float32
	// tensors: weights (out·in·9) and bias (out).
	return c.payloadBytes(func(in, out int64) int64 { return 8 + 4*(out*in*9+out) })
}

// GridSizeBytes is SizeBytes for the int8-grid (dcW6) payload of a model
// of this configuration: what an int8-admitted model ships as.
func (c Config) GridSizeBytes() int64 {
	// One 3×3 convolution serializes its weights as a count pair, one
	// float32 scale per output channel and one int8 code per weight, and
	// its bias as a count pair and float32 values.
	return c.payloadBytes(func(in, out int64) int64 { return 8 + 4*out + out*in*9 + 8 + 4*out })
}

// payloadBytes sums conv's payload size over the model's convolutions,
// after the 8-byte header; out-of-range dimensions report math.MaxInt64.
func (c Config) payloadBytes(conv func(in, out int64) int64) int64 {
	c = c.withDefaults()
	nf, rb := int64(c.Filters), int64(c.ResBlocks)
	if c.Validate() != nil || nf > 1<<15 || rb > 1<<15 {
		return math.MaxInt64
	}
	n := 8 + conv(3, nf) + (2*rb+1)*conv(nf, nf) + conv(nf, 3)
	for s := c.Scale; s > 1; s /= 2 {
		n += conv(nf, 4*nf)
	}
	return n
}

// String formats the configuration compactly, e.g. "EDSR(16f×4RB,x1)".
func (c Config) String() string {
	c = c.withDefaults()
	return fmt.Sprintf("EDSR(%df×%dRB,x%d)", c.Filters, c.ResBlocks, c.Scale)
}

// Standard configurations from the paper's evaluation (§4): dcSR-1/2/3 are
// 4, 12 and 16 ResBlocks of 16 filters; the big model (NAS/NEMO) uses the
// original EDSR width of 64 filters and 16 ResBlocks.
var (
	ConfigDCSR1 = Config{Filters: 16, ResBlocks: 4}
	ConfigDCSR2 = Config{Filters: 16, ResBlocks: 12}
	ConfigDCSR3 = Config{Filters: 16, ResBlocks: 16}
	ConfigBig   = Config{Filters: 64, ResBlocks: 16, ResScale: 0.1}
)

// upStage is one ×2 sub-pixel upsampling stage.
type upStage struct {
	conv    *nn.Conv2D
	shuffle *nn.PixelShuffle
}

// Model is an EDSR network instance: weights (and, once calibrated, int8
// state) only. The activations of an inference pass live in a Workspace.
type Model struct {
	Cfg Config

	head     *nn.Conv2D
	body     []*nn.ResBlock
	bodyConv *nn.Conv2D
	ups      []upStage
	tail     *nn.Conv2D

	ws *Workspace // where inference passes run; see SetWorkspace
}

// New builds an EDSR model with weights initialized from seed.
func New(cfg Config, seed int64) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	nf := cfg.Filters
	m := &Model{Cfg: cfg}
	m.head = nn.NewConv2D(rng, 3, nf, 3, 1, 1)
	for i := 0; i < cfg.ResBlocks; i++ {
		m.body = append(m.body, nn.NewResBlock(rng, nf, cfg.ResScale))
	}
	m.bodyConv = nn.NewConv2D(rng, nf, nf, 3, 1, 1)
	for s := cfg.Scale; s > 1; s /= 2 {
		m.ups = append(m.ups, upStage{
			conv:    nn.NewConv2D(rng, nf, nf*4, 3, 1, 1),
			shuffle: &nn.PixelShuffle{R: 2},
		})
	}
	m.tail = nn.NewConv2D(rng, nf, 3, 3, 1, 1)
	// Every model predicts a *residual* on top of a cheap baseline — the
	// input itself at scale 1, its nearest-neighbor upsampling at scale
	// 2/4 — with a zero-initialized tail so the untrained model equals
	// that baseline. This keeps an under-trained micro model from ever
	// falling below the trivial reconstruction.
	m.tail.Wt.W.Zero()
	return m, nil
}

// upsampleNearestInto repeats each input sample s× in both dimensions,
// writing into out (shaped via Ensure).
func upsampleNearestInto(x *tensor.Tensor, s int, out *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out = tensor.Ensure(out, n, c, h*s, w*s)
	for nc := 0; nc < n*c; nc++ {
		src := x.Data[nc*h*w : (nc+1)*h*w]
		dst := out.Data[nc*h*s*w*s : (nc+1)*h*s*w*s]
		for y := 0; y < h*s; y++ {
			srow := src[(y/s)*w : (y/s+1)*w]
			drow := dst[y*w*s : (y+1)*w*s]
			for xx := range drow {
				drow[xx] = srow[xx/s]
			}
		}
	}
	return out
}

// downsumNearestInto is the adjoint of upsampleNearestInto: it sums each
// s×s window of gy back onto its source sample in out (shaped via Ensure,
// and cleared first: the sums accumulate).
func downsumNearestInto(gy *tensor.Tensor, s int, out *tensor.Tensor) *tensor.Tensor {
	n, c, hs, ws := gy.Shape[0], gy.Shape[1], gy.Shape[2], gy.Shape[3]
	h, w := hs/s, ws/s
	out = tensor.Ensure(out, n, c, h, w)
	out.Zero()
	for nc := 0; nc < n*c; nc++ {
		src := gy.Data[nc*hs*ws : (nc+1)*hs*ws]
		dst := out.Data[nc*h*w : (nc+1)*h*w]
		for y := 0; y < hs; y++ {
			srow := src[y*ws : (y+1)*ws]
			drow := dst[(y/s)*w : (y/s+1)*w]
			for xx, v := range srow {
				drow[xx/s] += v
			}
		}
	}
	return out
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.head.Params()...)
	for _, b := range m.body {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, m.bodyConv.Params()...)
	for _, u := range m.ups {
		ps = append(ps, u.conv.Params()...)
	}
	ps = append(ps, m.tail.Params()...)
	return ps
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m.Params()) }

// SizeBytes returns the serialized weight size — the bytes a client must
// download per model (paper Fig 1(b), Fig 10).
func (m *Model) SizeBytes() int { return nn.WeightsSize(m.Params()) }

// CheckpointBytes approximates a training-framework checkpoint (weights
// plus two Adam moment tensors), which is what paper Table 1 reports.
func (m *Model) CheckpointBytes() int { return 3 * m.SizeBytes() }

// Forward runs the network on x (N, 3, H, W) in [−0.5, 0.5] and returns
// (N, 3, H·scale, W·scale). Activations are cached for Backward.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor { return m.forward(nil, x) }

// forward is Forward with every activation taken from the arena a (nil
// allocates), which is how Train runs it.
func (m *Model) forward(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	h := m.head.Forward(a, x)
	b := h
	for _, blk := range m.body {
		b = blk.Forward(a, b)
	}
	b = m.bodyConv.Forward(a, b)
	b.AddInPlace(h) // global skip; nothing reads bodyConv's bare output
	for _, u := range m.ups {
		b = u.conv.Forward(a, b)
		b = u.shuffle.Forward(a, b)
	}
	out := m.tail.Forward(a, b)
	if m.Cfg.Scale == 1 {
		out.AddInPlace(x) // global image residual (identity at init)
	} else {
		out.AddInPlace(upsampleNearestInto(x, m.Cfg.Scale, a.Next()))
	}
	return out
}

// ForwardInference runs the network on the no-grad fast path: fused
// conv+bias+ReLU kernels, banded im2col through pooled scratch, and every
// activation written into the model's Workspace, so no activations or
// column matrices are retained and steady-state calls allocate nothing.
// The output is bitwise identical to Forward. The returned tensor belongs
// to the workspace and is valid until the next inference pass of any
// model sharing it.
func (m *Model) ForwardInference(x *tensor.Tensor) *tensor.Tensor {
	ws := m.workspace()
	h := m.head.ForwardInference(x, &ws.skip)
	b, k := h, 0
	for _, blk := range m.body {
		b = blk.ForwardInference(b, &ws.maps[(k+1)%3], &ws.maps[(k+2)%3])
		k = (k + 2) % 3
	}
	b = m.bodyConv.ForwardInference(b, &ws.maps[(k+1)%3])
	k = (k + 1) % 3
	b.AddInPlace(h) // global skip (h is ws.skip, untouched since the head)
	for _, u := range m.ups {
		b = u.conv.ForwardInference(b, &ws.maps[(k+1)%3])
		b = u.shuffle.ForwardInference(b, &ws.maps[(k+2)%3])
		k = (k + 2) % 3
	}
	out := m.tail.ForwardInference(b, &ws.out)
	if m.Cfg.Scale == 1 {
		out.AddInPlace(x) // global image residual (identity at init)
	} else {
		out.AddInPlace(upsampleNearestInto(x, m.Cfg.Scale, &ws.near))
	}
	return out
}

// Backward propagates the loss gradient, accumulating parameter gradients.
func (m *Model) Backward(gy *tensor.Tensor) *tensor.Tensor { return m.backward(nil, gy) }

// backward is Backward with every gradient taken from the arena a.
func (m *Model) backward(a *tensor.Arena, gy *tensor.Tensor) *tensor.Tensor {
	g := m.tail.Backward(a, gy)
	for i := len(m.ups) - 1; i >= 0; i-- {
		g = m.ups[i].shuffle.Backward(a, g)
		g = m.ups[i].conv.Backward(a, g)
	}
	gSkip := g // layers never write into the gradient they are handed
	g = m.bodyConv.Backward(a, g)
	for i := len(m.body) - 1; i >= 0; i-- {
		g = m.body[i].Backward(a, g)
	}
	g.AddInPlace(gSkip) // global skip gradient
	gx := m.head.Backward(a, g)
	if m.Cfg.Scale == 1 {
		gx.AddInPlace(gy) // global image-residual gradient
	} else {
		gx.AddInPlace(downsumNearestInto(gy, m.Cfg.Scale, a.Next()))
	}
	return gx
}

// ToTensor converts an RGB frame into a normalized (1, 3, H, W) tensor in
// [−0.5, 0.5].
func ToTensor(f *video.RGB) *tensor.Tensor {
	return toTensorInto(f, nil)
}

// toTensorInto is ToTensor writing into a reusable tensor (grown via
// Ensure; pass nil to allocate).
func toTensorInto(f *video.RGB, t *tensor.Tensor) *tensor.Tensor {
	t = tensor.Ensure(t, 1, 3, f.H, f.W)
	for c := 0; c < 3; c++ {
		plane := t.Data[c*f.H*f.W : (c+1)*f.H*f.W]
		for i := 0; i < f.W*f.H; i++ {
			plane[i] = float32(f.Pix[i*3+c])/255 - 0.5
		}
	}
	return t
}

// FromTensor converts a (1, 3, H, W) tensor in [−0.5, 0.5] back to RGB.
func FromTensor(t *tensor.Tensor) *video.RGB {
	h, w := t.Shape[2], t.Shape[3]
	f := video.NewRGB(w, h)
	for c := 0; c < 3; c++ {
		plane := t.Data[c*h*w : (c+1)*h*w]
		for i := 0; i < w*h; i++ {
			v := (plane[i] + 0.5) * 255
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			f.Pix[i*3+c] = uint8(v + 0.5)
		}
	}
	return f
}

// Enhance super-resolves one RGB frame. It runs on the inference fast
// path: once the model's workspace has seen a frame this size (from this
// model or any other sharing it), the per-frame steady-state cost is the
// kernels plus one output RGB allocation.
func (m *Model) Enhance(low *video.RGB) *video.RGB {
	return FromTensor(m.ForwardInference(toTensorInto(low, &m.workspace().in)))
}

// EnhanceYUV performs the client-side dcSR conversion chain of paper Fig 6:
// YUV→RGB, SR inference, RGB→YUV. Scale must be 1 for in-loop use.
func (m *Model) EnhanceYUV(f *video.YUV) *video.YUV {
	return m.Enhance(f.ToRGB()).ToYUV()
}

// InferenceFLOPs returns the multiply-add count (×2) of one forward pass
// on an input of lowW×lowH pixels. The device model converts this to
// latency per device profile.
func (m *Model) InferenceFLOPs(lowW, lowH int) float64 {
	return ConfigFLOPs(m.Cfg, lowW, lowH)
}

// ConfigFLOPs computes inference FLOPs for a configuration without
// building the model. Per convolution: 2·K²·inC·outC·outH·outW.
func ConfigFLOPs(cfg Config, lowW, lowH int) float64 {
	cfg = cfg.withDefaults()
	nf := float64(cfg.Filters)
	px := float64(lowW * lowH)
	conv := func(inC, outC, pixels float64) float64 { return 2 * 9 * inC * outC * pixels }
	fl := conv(3, nf, px)                               // head
	fl += float64(cfg.ResBlocks) * 2 * conv(nf, nf, px) // body
	fl += conv(nf, nf, px)                              // body conv
	p := px
	for s := cfg.Scale; s > 1; s /= 2 {
		fl += conv(nf, nf*4, p)
		p *= 4
	}
	fl += conv(nf, 3, p) // tail
	return fl
}

// ConfigActivationBytes estimates peak activation memory for one
// inference at the given input size as the device model sees it: the
// dominant term is two float32 feature maps of n_f channels at input
// resolution (plus upsampled maps when Scale > 1) — what a runtime that
// fuses each block's convolutions and add needs resident. The device
// model uses this for the OOM behaviour seen in paper Fig 8 (NAS/NEMO
// cannot run 4K on the Jetson), and EXPERIMENTS.md's verdicts hang on it.
//
// This package's own working set is a Workspace: four such maps (the
// head's output kept for the global skip, and three the body rotates
// through, since its convolutions are separate kernels that cannot write
// over their input), plus the 3-channel in/out tensors and the int8
// activation map, one byte per channel and pixel plus its padding ring —
// 2.3× this figure for a 16-filter model at Scale 1, whatever ResBlocks
// is; a session that runs int8 only holds one map less, 1.8×
// (TestWorkspaceFootprint). Both scale the same way with n_f and
// resolution, which is what the OOM comparison rests on.
func ConfigActivationBytes(cfg Config, lowW, lowH int) int64 {
	cfg = cfg.withDefaults()
	px := int64(lowW) * int64(lowH)
	base := 2 * 4 * int64(cfg.Filters) * px // two resident feature maps
	if cfg.Scale > 1 {
		base += 4 * 4 * int64(cfg.Filters) * px // widest upsampling activation
	}
	return base
}
