package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// QuantConfig parameterizes the optional post-training int8 calibration
// stage (quantize_int8; with the delta stage on, quantize_backbone gates
// the backbone before the deltas are coded). Each cluster model is
// calibrated on its own training I frames — the same frames it will
// enhance, dcSR's data-centric serving situation — and kept on the int8
// path only if the quantized output stays within MaxPSNRDrop of the
// float32 output on those frames. An admitted model that ships complete
// is published as the int8 grid it runs (dcW6); clusters that fail the
// gate are marked float32-only in the manifest and the player falls back
// automatically.
type QuantConfig struct {
	// Enabled turns the stage on; false (the default) skips it entirely
	// and the pipeline output is bit-identical to the pre-quantization
	// behaviour.
	Enabled bool
	// MaxPSNRDrop is the quality gate in dB: a cluster whose int8 PSNR
	// against the pristine originals falls more than this below the
	// float32 PSNR stays float32-only. Default 0.5.
	MaxPSNRDrop float64
	// MaxFrames caps the calibration frames per cluster (the first N of
	// the cluster's I-frame pairs); calibration and the gate together
	// cost one float32 plus one int8 forward pass per frame. Default 4.
	MaxFrames int
}

func (q QuantConfig) withDefaults() QuantConfig {
	if q.MaxPSNRDrop == 0 {
		q.MaxPSNRDrop = 0.5
	}
	if q.MaxFrames == 0 {
		q.MaxFrames = 4
	}
	return q
}

// QuantResult records the calibration outcome for one cluster model.
type QuantResult struct {
	// Int8OK reports the gate decision: true means the manifest
	// advertises the model for the int8 path.
	Int8OK bool `json:"int8_ok"`
	// PSNRFloat32 and PSNRInt8 are the mean-MSE PSNRs (dB) of the two
	// paths against the pristine originals on the calibration frames.
	PSNRFloat32 float64 `json:"psnr_float32"`
	PSNRInt8    float64 `json:"psnr_int8"`
	// ActScales are the calibrated per-layer activation scales; they
	// re-arm the model after deserialization (CalibrateFromScales)
	// without redoing the calibration passes.
	ActScales []float32 `json:"act_scales,omitempty"`
}

// stageQuantize gates every trained cluster model not yet gated
// (quantizeModel) — with the delta stage on, every model but the
// backbone, which quantize_backbone gated before the deltas were coded
// against it. Skipped unless cfg.Quant.Enabled. Counters:
// quant_int8_models_total (clusters that passed the gate),
// quant_fallback_total (clusters gated back to float32).
func stageQuantize(ctx context.Context, sp *obs.Span, s *prepState) error {
	o := s.cfg.Obs
	okCtr := o.Counter("quant_int8_models_total")
	fbCtr := o.Counter("quant_fallback_total")
	p := s.p
	computed := make([]bool, p.K) // per label, so workers never share a slot
	err := forEach(ctx, p.K, runtime.GOMAXPROCS(0), func(label int) (err error) {
		computed[label], err = s.quantizeModel(label)
		return err
	})
	if err != nil {
		return err
	}
	if !slices.Contains(computed, true) {
		sp.Set("checkpoint", true)
	}
	var passed, fallbacks int
	for _, sm := range p.Models {
		switch {
		case sm.Quant == nil:
		case sm.Quant.Int8OK:
			passed++
		default:
			fallbacks++
		}
	}
	okCtr.Add(int64(passed))
	fbCtr.Add(int64(fallbacks))
	sp.Set("int8_models", passed)
	sp.Set("fallbacks", fallbacks)
	s.log.Info("prepare: int8 calibration complete",
		"int8_models", passed, "fallbacks", fallbacks, "max_psnr_drop", s.cfg.Quant.MaxPSNRDrop)
	return nil
}

// stageQuantizeBackbone gates the shared backbone (pickBackboneLabel)
// before delta_encode, so an admitted backbone is snapped onto its int8
// grid first and every delta is coded against the weights it ships as.
// Skipped unless both cfg.Quant and cfg.Delta are enabled.
func stageQuantizeBackbone(_ context.Context, sp *obs.Span, s *prepState) error {
	bb := pickBackboneLabel(s.p)
	if bb < 0 {
		return nil
	}
	computed, err := s.quantizeModel(bb)
	if !computed {
		sp.Set("checkpoint", true)
	}
	return err
}

// quantizeModel runs the int8 gate (QuantConfig) on label's model: one
// calibration pass over the cluster's first frames, which is the float32
// side of the gate too, and one int8 pass. An admitted model that ships
// complete — no adopted delta — is then snapped (edsr.Model.SnapInt8):
// its weights become the dequantization of the int8 grid the gate
// measured, and its payload that grid (dcW6), so origin and viewer hold
// the same float32 and the same int8 state. It reports whether it
// computed anything: no model, or a verdict the train stage restored,
// costs nothing.
func (s *prepState) quantizeModel(label int) (bool, error) {
	p, qc := s.p, s.cfg.Quant
	sm := p.Models[label]
	if sm == nil || sm.Quant != nil {
		return false, nil
	}
	var low, orig []*video.RGB
	for si, a := range p.Assign {
		if a == label && len(low) < qc.MaxFrames {
			low = append(low, p.LowIFrames[si])
			orig = append(orig, p.OrigIFrames[si])
		}
	}
	if len(low) == 0 {
		return true, nil
	}
	ws := s.checkoutWorkspace()
	defer s.returnWorkspace(ws)
	sm.Model.SetWorkspace(ws)
	defer sm.Model.SetWorkspace(nil)
	// The calibration passes are the float32 side of the gate.
	f32, err := sm.Model.CalibrateEnhance(low)
	if err != nil {
		return true, fmt.Errorf("core: calibrating cluster %d: %w", label, err)
	}
	// Mean MSE over the calibration frames on each path, compared as
	// PSNR so the gate is in the same unit as the paper's quality
	// results.
	var mseF, mseI float64
	for i := range low {
		mseF += frameMSE(f32[i], orig[i])
		mseI += frameMSE(sm.Model.EnhanceInt8(low[i]), orig[i])
	}
	psnrF := mseToPSNR(mseF / float64(len(low)))
	psnrI := mseToPSNR(mseI / float64(len(low)))
	sm.Quant = &QuantResult{
		Int8OK:      psnrF-psnrI <= qc.MaxPSNRDrop,
		PSNRFloat32: psnrF,
		PSNRInt8:    psnrI,
		ActScales:   sm.Model.ActScales(),
	}
	snap := sm.Quant.Int8OK && (sm.Delta == nil || !sm.Delta.DeltaOK)
	if snap {
		if err := sm.Model.SnapInt8(); err != nil {
			return true, err
		}
		if sm.Bytes, err = nn.EncodeWeightsGrid(sm.Model.Params()); err != nil {
			return true, fmt.Errorf("core: int8 grid of cluster %d: %w", label, err)
		}
	}
	return true, s.ck.update(func(r *rootFile) {
		rec := &quantRecord{QuantResult: *sm.Quant}
		if snap {
			rec.Grid = s.ck.put(sm.Bytes)
		}
		r.Models[label].Quant = rec
	})
}

// frameMSE is the mean squared error between two frames in 8-bit pixel
// units (the scale quality.MSEToPSNR expects).
func frameMSE(a, b *video.RGB) float64 {
	if a.W != b.W || a.H != b.H {
		panic("core: frameMSE dimension mismatch")
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += d * d
	}
	return sum / float64(len(a.Pix))
}
