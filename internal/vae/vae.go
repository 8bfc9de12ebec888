// Package vae implements the variational autoencoder dcSR uses for
// high-level feature extraction from segment I-frames (paper §3.1.1,
// Fig 3): a convolutional encoder mapping an image to a latent Gaussian
// (μ, σ), a reparameterized sample z ~ N(μ, σ), and a decoder
// reconstructing the image from z. Training minimizes
//
//	L = c·‖x − x̂‖² + KL(N(μ, σ) ‖ N(0, 1))
//
// and only the encoder's μ is used downstream as the clustering feature,
// exactly as in the paper ("we train both encoder and decoder, but we use
// only encoder to get the latent features").
package vae

import (
	"fmt"
	"math"
	"math/rand"

	"dcsr/internal/nn"
	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// Config sizes the VAE.
type Config struct {
	ImgSize   int // square input edge; frames are resized to this. Default 32.
	LatentDim int // latent dimensionality. Default 8.
	BaseCh    int // encoder channel width. Default 8.
}

func (c Config) withDefaults() Config {
	if c.ImgSize == 0 {
		c.ImgSize = 32
	}
	if c.LatentDim == 0 {
		c.LatentDim = 8
	}
	if c.BaseCh == 0 {
		c.BaseCh = 8
	}
	return c
}

// Model is a trained or trainable VAE.
type Model struct {
	Cfg Config

	// Encoder: two stride-2 convs then two dense heads (μ and log σ²).
	enc1, enc2     *nn.Conv2D
	act1, act2     *nn.ReLU
	muHead, lvHead *nn.Dense

	// Decoder: dense up-projection then two pixel-shuffle deconv stages.
	dec    *nn.Dense
	dact   *nn.ReLU
	dconv1 *nn.Conv2D
	dps1   *nn.PixelShuffle
	dact1  *nn.ReLU
	dconv2 *nn.Conv2D
	dps2   *nn.PixelShuffle

	rng *rand.Rand

	// cached forward state for backward
	encFlat *tensor.Tensor
	eps     *tensor.Tensor
	mu, lv  *tensor.Tensor

	feat [3]tensor.Tensor // Features' activations (tiny: ImgSize² inputs)
}

// New constructs a VAE with weights initialized from seed.
func New(cfg Config, seed int64) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.ImgSize%4 != 0 {
		return nil, fmt.Errorf("vae: ImgSize must be a multiple of 4, got %d", cfg.ImgSize)
	}
	rng := rand.New(rand.NewSource(seed))
	bc := cfg.BaseCh
	s4 := cfg.ImgSize / 4
	flat := 2 * bc * s4 * s4
	m := &Model{Cfg: cfg, rng: rng}
	m.enc1 = nn.NewConv2D(rng, 3, bc, 3, 2, 1)
	m.act1 = &nn.ReLU{}
	m.enc2 = nn.NewConv2D(rng, bc, 2*bc, 3, 2, 1)
	m.act2 = &nn.ReLU{}
	m.muHead = nn.NewDense(rng, flat, cfg.LatentDim)
	m.lvHead = nn.NewDense(rng, flat, cfg.LatentDim)
	m.dec = nn.NewDense(rng, cfg.LatentDim, flat)
	m.dact = &nn.ReLU{}
	m.dconv1 = nn.NewConv2D(rng, 2*bc, bc*4, 3, 1, 1)
	m.dps1 = &nn.PixelShuffle{R: 2}
	m.dact1 = &nn.ReLU{}
	m.dconv2 = nn.NewConv2D(rng, bc, 3*4, 3, 1, 1)
	m.dps2 = &nn.PixelShuffle{R: 2}
	return m, nil
}

// Params returns all trainable parameters of encoder and decoder.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range []nn.Layer{m.enc1, m.enc2, m.muHead, m.lvHead, m.dec, m.dconv1, m.dconv2} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// encode runs the encoder, returning μ and log σ² for a batch. Like
// every training pass here it takes its tensors from the arena a (nil
// allocates).
func (m *Model) encode(a *tensor.Arena, x *tensor.Tensor) (mu, lv *tensor.Tensor) {
	h := m.enc1.Forward(a, x)
	h = m.act1.Forward(a, h)
	h = m.enc2.Forward(a, h)
	h = m.act2.Forward(a, h)
	n := h.Shape[0]
	flat := h.Len() / n
	m.encFlat = h.Reshape(n, flat)
	return m.muHead.Forward(a, m.encFlat), m.lvHead.Forward(a, m.encFlat)
}

// decode reconstructs images from latent z.
func (m *Model) decode(a *tensor.Arena, z *tensor.Tensor) *tensor.Tensor {
	cfg := m.Cfg
	n := z.Shape[0]
	s4 := cfg.ImgSize / 4
	h := m.dec.Forward(a, z)
	h = m.dact.Forward(a, h)
	h = h.Reshape(n, 2*cfg.BaseCh, s4, s4)
	h = m.dconv1.Forward(a, h)
	h = m.dps1.Forward(a, h)
	h = m.dact1.Forward(a, h)
	h = m.dconv2.Forward(a, h)
	return m.dps2.Forward(a, h)
}

// forward runs the full reparameterized pass. Sampling noise comes from
// the model's seeded PRNG so training is deterministic.
func (m *Model) forward(a *tensor.Arena, x *tensor.Tensor, sample bool) *tensor.Tensor {
	mu, lv := m.encode(a, x)
	m.mu, m.lv = mu, lv
	z := tensor.Ensure(a.Next(), mu.Shape...)
	m.eps = tensor.Ensure(a.Next(), mu.Shape...)
	for i, v := range mu.Data {
		var e float32 // ε = 0 without sampling: z = μ
		if sample {
			e = float32(m.rng.NormFloat64())
			v += e * float32(math.Exp(0.5*float64(lv.Data[i])))
		}
		m.eps.Data[i], z.Data[i] = e, v
	}
	return m.decode(a, z)
}

// backward propagates reconstruction gradient gx̂ plus the KL term with
// weight klW (per batch element).
func (m *Model) backward(a *tensor.Arena, gRecon *tensor.Tensor, klW float64) {
	// Through the decoder.
	g := m.dps2.Backward(a, gRecon)
	g = m.dconv2.Backward(a, g)
	g = m.dact1.Backward(a, g)
	g = m.dps1.Backward(a, g)
	g = m.dconv1.Backward(a, g)
	n := m.mu.Shape[0]
	g = g.Reshape(n, g.Len()/n)
	g = m.dact.Backward(a, g)
	gz := m.dec.Backward(a, g)

	// Reparameterization: z = μ + ε·exp(lv/2); KL gradient: d/dμ = μ·w,
	// d/dlv = −0.5·(1 − exp(lv))·w. gz itself becomes d/dμ.
	gMu := gz
	gLv := tensor.Ensure(a.Next(), m.lv.Shape...)
	w := float32(klW)
	for i, g := range gz.Data {
		gLv.Data[i] = g * m.eps.Data[i] * 0.5 * float32(math.Exp(0.5*float64(m.lv.Data[i])))
		gMu.Data[i] += m.mu.Data[i] * w
		gLv.Data[i] += -0.5 * (1 - float32(math.Exp(float64(m.lv.Data[i])))) * w
	}
	gm := m.muHead.Backward(a, gMu)
	gl := m.lvHead.Backward(a, gLv)
	gm.AddInPlace(gl)
	gEnc := gm.Reshape(n, 2*m.Cfg.BaseCh, m.Cfg.ImgSize/4, m.Cfg.ImgSize/4)
	g = m.act2.Backward(a, gEnc)
	g = m.enc2.Backward(a, g)
	g = m.act1.Backward(a, g)
	m.enc1.Backward(a, g)
}

// klLoss returns the mean KL divergence to N(0,1) per batch element.
func klLoss(mu, lv *tensor.Tensor) float64 {
	var s float64
	for i := range mu.Data {
		m := float64(mu.Data[i])
		l := float64(lv.Data[i])
		s += -0.5 * (1 + l - m*m - math.Exp(l))
	}
	return s / float64(mu.Shape[0])
}

// TrainOptions controls VAE training.
type TrainOptions struct {
	Epochs      int     // passes over the dataset; default 60
	BatchSize   int     // default 8
	LR          float64 // default 1e-3
	ReconWeight float64 // c in the paper's Eq. 1; default 500
	Seed        int64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = 60
	}
	if o.BatchSize == 0 {
		o.BatchSize = 8
	}
	if o.LR == 0 {
		o.LR = 1e-3
	}
	if o.ReconWeight == 0 {
		o.ReconWeight = 500
	}
	return o
}

// TrainResult reports training losses.
type TrainResult struct {
	FinalRecon float64 // final-epoch mean MSE (normalized pixels)
	FinalKL    float64
}

// Train fits the VAE to frames (each resized to ImgSize²).
func (m *Model) Train(frames []*video.RGB, opts TrainOptions) (*TrainResult, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("vae: no training frames")
	}
	opts = opts.withDefaults()
	xs := make([]*tensor.Tensor, len(frames))
	for i, f := range frames {
		xs[i] = m.toInput(f)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	opt := nn.NewAdam(opts.LR)
	opt.GradClip = 1
	params := m.Params()
	res := &TrainResult{}
	// One arena for every step's batch, activations and gradients (see
	// edsr.Model.Train); a short last batch regrows nothing, Ensure
	// reslices.
	var arena tensor.Arena
	var grad tensor.Tensor
	for ep := 0; ep < opts.Epochs; ep++ {
		perm := rng.Perm(len(xs))
		var reconSum, klSum float64
		var batches int
		for b := 0; b < len(perm); b += opts.BatchSize {
			hi := b + opts.BatchSize
			if hi > len(perm) {
				hi = len(perm)
			}
			arena.Reset()
			batch := m.stack(arena.Next(), xs, perm[b:hi])
			nn.ZeroGrads(params)
			xh := m.forward(&arena, batch, true)
			recon := nn.MSELoss(xh, batch, &grad)
			// Total loss = c·recon + KL; scale recon gradient by c.
			grad.ScaleInPlace(float32(opts.ReconWeight))
			kl := klLoss(m.mu, m.lv)
			m.backward(&arena, &grad, 1.0/float64(batch.Shape[0]))
			opt.Step(params)
			reconSum += recon
			klSum += kl
			batches++
		}
		res.FinalRecon = reconSum / float64(batches)
		res.FinalKL = klSum / float64(batches)
	}
	return res, nil
}

// stack gathers dataset items into the batch tensor out.
func (m *Model) stack(out *tensor.Tensor, xs []*tensor.Tensor, idx []int) *tensor.Tensor {
	s := m.Cfg.ImgSize
	out = tensor.Ensure(out, len(idx), 3, s, s)
	per := 3 * s * s
	for i, j := range idx {
		copy(out.Data[i*per:(i+1)*per], xs[j].Data)
	}
	return out
}

// toInput resizes and normalizes a frame to the VAE's input tensor.
func (m *Model) toInput(f *video.RGB) *tensor.Tensor {
	s := m.Cfg.ImgSize
	r := video.ResizeRGB(f, s, s)
	t := tensor.New(1, 3, s, s)
	for c := 0; c < 3; c++ {
		plane := t.Data[c*s*s : (c+1)*s*s]
		for i := 0; i < s*s; i++ {
			plane[i] = float32(r.Pix[i*3+c])/255 - 0.5
		}
	}
	return t
}

// Features returns the encoder's latent mean μ for a frame — the feature
// vector fed to the clustering stage. It runs the encoder on the no-grad
// inference path (fused conv+ReLU, reused buffers) and skips the log σ²
// head entirely, so feature extraction over a whole corpus stays cheap.
func (m *Model) Features(f *video.RGB) []float64 {
	h := m.enc1.ForwardInferenceReLU(m.toInput(f), &m.feat[0])
	h = m.enc2.ForwardInferenceReLU(h, &m.feat[1])
	n := h.Shape[0]
	mu := m.muHead.ForwardInference(h.Reshape(n, h.Len()/n), &m.feat[2])
	out := make([]float64, mu.Len())
	for i, v := range mu.Data {
		out[i] = float64(v)
	}
	return out
}

// Reconstruct runs a deterministic (no sampling) encode/decode pass,
// returning the reconstruction as an RGB image. Used by tests to verify
// the autoencoding objective.
func (m *Model) Reconstruct(f *video.RGB) *video.RGB {
	xh := m.forward(nil, m.toInput(f), false)
	s := m.Cfg.ImgSize
	out := video.NewRGB(s, s)
	for c := 0; c < 3; c++ {
		plane := xh.Data[c*s*s : (c+1)*s*s]
		for i := 0; i < s*s; i++ {
			v := (plane[i] + 0.5) * 255
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out.Pix[i*3+c] = uint8(v + 0.5)
		}
	}
	return out
}
