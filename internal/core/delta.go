package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// DeltaConfig parameterizes the optional delta_encode stage (the model
// stream of SRVC applied to dcSR's per-cluster models). The stage runs
// right after training: it picks a shared backbone — the model of the
// cluster covering the most segments, the "centroid" of the video — and
// re-expresses every other cluster model as a dcW5 delta against it.
// Each delta passes a size gate (it must actually be smaller than the
// full encoding) and a quality gate (the reconstruction, which becomes
// the model's canonical weights, must enhance the cluster's own frames
// within MaxPSNRDrop of the originally trained weights); clusters
// failing either gate keep their full encoding, exactly like the int8
// stage's float32 fallback.
type DeltaConfig struct {
	// Enabled turns the stage on; false (the default) skips it entirely
	// and the pipeline output is bit-identical to the pre-delta
	// behaviour.
	Enabled bool
	// MaxPSNRDrop is the quality gate in dB: a cluster whose
	// delta-reconstructed model scores more than this below its
	// originally trained model (on the cluster's own frames, against the
	// pristine originals) ships complete instead. Default 0.5.
	MaxPSNRDrop float64
	// MaxFrames caps the gate frames per cluster (the first N of the
	// cluster's I-frame pairs). Default 4.
	MaxFrames int
}

func (d DeltaConfig) withDefaults() DeltaConfig {
	if d.MaxPSNRDrop == 0 {
		d.MaxPSNRDrop = 0.5
	}
	if d.MaxFrames == 0 {
		d.MaxFrames = 4
	}
	return d
}

// DeltaResult records the delta-encoding verdict for one cluster model.
type DeltaResult struct {
	// DeltaOK reports the gate decision: true means the model ships as a
	// delta and the manifest advertises it against the backbone.
	DeltaOK bool `json:"delta_ok"`
	// BackboneLabel is the cluster whose model the delta is encoded
	// against (shared by every delta of the video).
	BackboneLabel int `json:"backbone_label"`
	// Bytes is the dcW5 delta payload (on disk an object, not JSON); nil
	// when DeltaOK is false.
	Bytes []byte `json:"-"`
	// PSNRFull and PSNRDelta are the gate measurements in dB: the
	// trained weights versus the delta reconstruction on the cluster's
	// frames.
	PSNRFull  float64 `json:"psnr_full,omitempty"`
	PSNRDelta float64 `json:"psnr_delta,omitempty"`
	// FullBytes and DeltaBytes are the two candidate payload sizes the
	// size gate compared.
	FullBytes  int `json:"full_bytes,omitempty"`
	DeltaBytes int `json:"delta_bytes,omitempty"`
}

// pickBackboneLabel chooses the shared backbone: the model of the
// cluster with the most assigned segments, ties broken toward the lowest
// label so the choice is deterministic.
func pickBackboneLabel(p *Prepared) int {
	counts := make(map[int]int)
	for _, a := range p.Assign {
		counts[a]++
	}
	best := -1
	for label := 0; label < p.K; label++ {
		if p.Models[label] == nil {
			continue
		}
		if best < 0 || counts[label] > counts[best] {
			best = label
		}
	}
	return best
}

// stageDeltaEncode re-expresses every cluster model as a dcW5 delta
// against the shared backbone, subject to the size and quality gates
// (DeltaConfig). Models that pass adopt the delta reconstruction as
// their canonical weights — so a client assembling backbone + delta runs
// bit-identical weights to the origin — and ship their delta payload on
// the wire; models that fail keep their full encoding. Skipped unless
// cfg.Delta.Enabled. Counters: delta_models_total (clusters shipping as
// deltas), delta_fallback_total (clusters gated back to full encoding).
func stageDeltaEncode(ctx context.Context, sp *obs.Span, s *prepState) error {
	o := s.cfg.Obs
	okCtr := o.Counter("delta_models_total")
	fbCtr := o.Counter("delta_fallback_total")
	dc := s.cfg.Delta
	p := s.p
	if len(p.Models) < 2 {
		sp.Set("skipped", "single model")
		s.log.Info("prepare: delta encoding skipped", "models", len(p.Models))
		return nil
	}
	bb := pickBackboneLabel(p)
	computed := make([]bool, p.K) // per label, so workers never share a slot
	err := forEach(ctx, p.K, runtime.GOMAXPROCS(0), func(label int) error {
		sm := p.Models[label]
		if sm == nil || label == bb || sm.Delta != nil {
			return nil // no model, the backbone, or a verdict the train stage restored
		}
		computed[label] = true
		ws := s.checkoutWorkspace()
		defer s.returnWorkspace(ws)
		if err := deltaEncodeModel(p, dc, ws, p.Models[bb], sm); err != nil {
			return err
		}
		return s.ck.update(func(r *rootFile) { r.Models[label].Delta = s.ck.putDelta(sm) })
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
		case sm.Delta == nil:
		case sm.Delta.DeltaOK:
			passed++
		default:
			fallbacks++
		}
	}
	okCtr.Add(int64(passed))
	fbCtr.Add(int64(fallbacks))
	sp.Set("delta_models", passed)
	sp.Set("fallbacks", fallbacks)
	return nil
}

// deltaEncodeModel runs sm through the delta gates against the backbone
// bsm, setting sm.Delta and, on adoption, sm's canonical weights. The
// quality gate's inference passes run in ws, detached again before
// returning.
func deltaEncodeModel(p *Prepared, dc DeltaConfig, ws *edsr.Workspace, bsm, sm *SegmentModel) error {
	label := sm.Label
	delta, err := nn.EncodeWeightsDelta(bsm.Model.Params(), sm.Model.Params())
	if err != nil {
		return fmt.Errorf("core: delta-encoding cluster %d: %w", label, err)
	}
	res := &DeltaResult{BackboneLabel: bsm.Label, FullBytes: len(sm.Bytes), DeltaBytes: len(delta)}
	sm.Delta = res
	if len(delta) >= len(sm.Bytes) {
		return nil // size gate: the delta isn't smaller, ship complete
	}
	recon, err := edsr.New(sm.Config, 0)
	if err != nil {
		return err
	}
	if err := nn.ApplyWeightsDelta(bsm.Model.Params(), delta, recon.Params()); err != nil {
		return fmt.Errorf("core: reconstructing cluster %d: %w", label, err)
	}
	var low, orig []*video.RGB
	for si, a := range p.Assign {
		if a == label && len(low) < dc.MaxFrames {
			low = append(low, p.LowIFrames[si])
			orig = append(orig, p.OrigIFrames[si])
		}
	}
	trained := sm.Model
	trained.SetWorkspace(ws)
	recon.SetWorkspace(ws)
	defer trained.SetWorkspace(nil)
	defer recon.SetWorkspace(nil)
	var mseFull, mseDelta float64
	for i := range low {
		mseFull += frameMSE(trained.Enhance(low[i]), orig[i])
		mseDelta += frameMSE(recon.Enhance(low[i]), orig[i])
	}
	if len(low) > 0 {
		res.PSNRFull = mseToPSNR(mseFull / float64(len(low)))
		res.PSNRDelta = mseToPSNR(mseDelta / float64(len(low)))
		if res.PSNRFull-res.PSNRDelta > dc.MaxPSNRDrop {
			return nil // quality gate: reconstruction lost too much
		}
	}
	// Adopt: the reconstruction becomes the canonical model, so origin
	// playback and client assembly are bit-identical by construction.
	res.DeltaOK = true
	res.Bytes = delta
	sm.Model = recon
	sm.Bytes = nn.EncodeWeights(recon.Params())
	res.FullBytes = len(sm.Bytes)
	return nil
}

// WithoutDelta returns a copy of p whose models all ship complete — the
// same canonical weights with the delta verdicts stripped and the
// manifest rebuilt. The modelstream bench uses it as the "today" control
// arm: identical playback, full-model downloads.
func (p *Prepared) WithoutDelta() *Prepared {
	cp := *p
	cp.Models = make(map[int]*SegmentModel, len(p.Models))
	for label, sm := range p.Models {
		c := *sm
		c.Delta = nil
		cp.Models[label] = &c
	}
	cp.Manifest = buildManifest(&cp)
	return &cp
}

// backboneLabel returns the label of the shared backbone advertised by
// the delta verdicts, or -1 when no model ships as a delta.
func (p *Prepared) backboneLabel() int {
	for label := 0; label < p.K; label++ {
		sm := p.Models[label]
		if sm != nil && sm.Delta != nil && sm.Delta.DeltaOK {
			return sm.Delta.BackboneLabel
		}
	}
	return -1
}
