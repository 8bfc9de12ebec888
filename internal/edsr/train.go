package edsr

import (
	"errors"
	"fmt"
	"math/rand"

	"dcsr/internal/nn"
	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// Pair is one training example: a degraded frame and its pristine ground
// truth. For Scale 1 both have equal dimensions; for Scale s the high
// frame is s× larger in each dimension.
type Pair struct {
	Low, High *video.RGB
}

// ErrStopped is returned by Train when TrainOptions.Stop interrupts the
// optimization loop before all steps have run.
var ErrStopped = errors.New("edsr: training stopped")

// TrainOptions controls micro-model training.
type TrainOptions struct {
	Steps     int     // optimizer steps; default 200
	BatchSize int     // patches per step; default 4
	PatchSize int     // low-res patch edge; default 24
	LR        float64 // Adam learning rate; default 1e-3
	Seed      int64   // patch sampling seed

	// Stop, when non-nil, is polled before every optimizer step; returning
	// true aborts training with ErrStopped. It bounds cancellation latency
	// to a single step without threading a context into this deterministic
	// package (callers map ErrStopped back to their context's error).
	Stop func() bool `json:"-"`
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Steps == 0 {
		o.Steps = 200
	}
	if o.BatchSize == 0 {
		o.BatchSize = 4
	}
	if o.PatchSize == 0 {
		o.PatchSize = 24
	}
	if o.LR == 0 {
		o.LR = 1e-3
	}
	return o
}

// TrainResult reports what training did.
type TrainResult struct {
	Steps      int
	FinalLoss  float64 // mean MSE over the last 10% of steps (pixel scale 0–255²)
	FirstLoss  float64 // MSE of the first step, same scale
	TrainFLOPs float64 // total training compute (forward+backward ≈ 3× forward)
}

// Train fits the model to pairs by sampling random aligned patches and
// minimizing MSE with Adam. It is the "overfit the video" training of the
// paper (§3.1.3, Appendix A.1): train and test data are identical by
// design, so the training loss directly measures enhancement quality.
func (m *Model) Train(pairs []Pair, opts TrainOptions) (*TrainResult, error) {
	opts = opts.withDefaults()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("edsr: no training pairs")
	}
	s := m.Cfg.withDefaults().Scale
	for i, p := range pairs {
		if p.High.W != p.Low.W*s || p.High.H != p.Low.H*s {
			return nil, fmt.Errorf("edsr: pair %d dimensions %dx%d / %dx%d inconsistent with scale %d",
				i, p.Low.W, p.Low.H, p.High.W, p.High.H, s)
		}
		if p.Low.W < opts.PatchSize || p.Low.H < opts.PatchSize {
			return nil, fmt.Errorf("edsr: pair %d smaller than patch size %d", i, opts.PatchSize)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	opt := nn.NewAdam(opts.LR)
	opt.GradClip = 1
	params := m.Params()
	res := &TrainResult{Steps: opts.Steps}
	ps := opts.PatchSize
	var tailSum float64
	var tailN int
	// The step's working set, reused by every step after the first: the
	// two patch batches (copyPatch overwrites every sample), the loss
	// gradient, and — through the arena — every activation, column matrix
	// and gradient of the forward and backward passes. It dies with this
	// call; the trained model keeps none of it.
	x := tensor.New(opts.BatchSize, 3, ps, ps)
	y := tensor.New(opts.BatchSize, 3, ps*s, ps*s)
	var grad tensor.Tensor
	var arena tensor.Arena
	for step := 0; step < opts.Steps; step++ {
		if opts.Stop != nil && opts.Stop() {
			return nil, ErrStopped
		}
		for b := 0; b < opts.BatchSize; b++ {
			p := pairs[rng.Intn(len(pairs))]
			px := rng.Intn(p.Low.W - ps + 1)
			py := rng.Intn(p.Low.H - ps + 1)
			copyPatch(x, b, p.Low, px, py, ps)
			copyPatch(y, b, p.High, px*s, py*s, ps*s)
		}
		nn.ZeroGrads(params)
		arena.Reset()
		pred := m.forward(&arena, x)
		loss := nn.MSELoss(pred, y, &grad)
		m.backward(&arena, &grad)
		opt.Step(params)
		// Report loss on the 0–255 pixel scale like the paper's Fig 11.
		pixLoss := loss * 255 * 255
		if step == 0 {
			res.FirstLoss = pixLoss
		}
		if step >= opts.Steps*9/10 {
			tailSum += pixLoss
			tailN++
		}
	}
	if tailN > 0 {
		res.FinalLoss = tailSum / float64(tailN)
	}
	perStep := 3 * ConfigFLOPs(m.Cfg, ps, ps) * float64(opts.BatchSize)
	res.TrainFLOPs = perStep * float64(opts.Steps)
	return res, nil
}

// copyPatch copies a ps×ps patch at (px, py) of frame f into batch slot b
// of tensor t, normalized to [−0.5, 0.5].
func copyPatch(t *tensor.Tensor, b int, f *video.RGB, px, py, ps int) {
	for c := 0; c < 3; c++ {
		plane := t.Data[(b*3+c)*ps*ps : (b*3+c+1)*ps*ps]
		for y := 0; y < ps; y++ {
			for x := 0; x < ps; x++ {
				plane[y*ps+x] = float32(f.Pix[((py+y)*f.W+px+x)*3+c])/255 - 0.5
			}
		}
	}
}

// EvalMSE returns the mean per-pixel MSE (0–255² scale) of the model's
// output against ground truth over the given pairs, without training. It
// runs in the model's workspace and converts every target into one
// tensor.
func (m *Model) EvalMSE(pairs []Pair) float64 {
	var sum float64
	var target tensor.Tensor
	for _, p := range pairs {
		pred := m.ForwardInference(toTensorInto(p.Low, &m.workspace().in))
		sum += nn.MSELoss(pred, toTensorInto(p.High, &target), nil) * 255 * 255
	}
	return sum / float64(len(pairs))
}
