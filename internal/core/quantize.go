package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// QuantConfig parameterizes the optional post-training int8 calibration
// stage (quantize_int8). The stage runs after per-cluster training:
// each cluster model is calibrated on its own training I frames — the
// same frames it will enhance, dcSR's data-centric serving situation —
// and kept on the int8 path only if the quantized output stays within
// MaxPSNRDrop of the float32 output on those frames. Clusters that fail
// the gate are marked float32-only in the manifest and the player falls
// back automatically.
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

// stageQuantize calibrates every trained cluster model for int8
// inference and applies the quality gate (QuantConfig). Skipped unless
// cfg.Quant.Enabled. Counters: quant_int8_models_total (clusters that
// passed the gate), quant_fallback_total (clusters gated back to
// float32).
func stageQuantize(ctx context.Context, sp *obs.Span, s *prepState) error {
	o := s.cfg.Obs
	okCtr := o.Counter("quant_int8_models_total")
	fbCtr := o.Counter("quant_fallback_total")
	qc := s.cfg.Quant
	p := s.p
	computed := make([]bool, p.K) // per label, so workers never share a slot
	err := forEach(ctx, p.K, runtime.GOMAXPROCS(0), func(label int) error {
		sm := p.Models[label]
		if sm == nil || sm.Quant != nil {
			return nil // no model, or a verdict the train stage restored and re-armed
		}
		computed[label] = true
		var low, orig []*video.RGB
		for si, a := range p.Assign {
			if a == label && len(low) < qc.MaxFrames {
				low = append(low, p.LowIFrames[si])
				orig = append(orig, p.OrigIFrames[si])
			}
		}
		if len(low) == 0 {
			return nil
		}
		ws := s.checkoutWorkspace()
		defer s.returnWorkspace(ws)
		sm.Model.SetWorkspace(ws)
		defer sm.Model.SetWorkspace(nil)
		// The calibration passes are the float32 side of the gate.
		f32, err := sm.Model.CalibrateEnhance(low)
		if err != nil {
			return fmt.Errorf("core: calibrating cluster %d: %w", label, err)
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
		return s.ck.update(func(r *rootFile) { r.Models[label].Quant = sm.Quant })
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
		"int8_models", passed, "fallbacks", fallbacks, "max_psnr_drop", qc.MaxPSNRDrop)
	return nil
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
