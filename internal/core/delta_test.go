package core

import (
	"bytes"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

func framesIdentical(t *testing.T, a, b []*video.YUV, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d frames", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Y, b[i].Y) || !bytes.Equal(a[i].U, b[i].U) || !bytes.Equal(a[i].V, b[i].V) {
			t.Fatalf("%s: frame %d differs", what, i)
		}
	}
}

// TestDeltaStageModelStream runs the pipeline with delta encoding under a
// permissive quality gate: every non-backbone model must ship as a delta
// (deltas code one byte per weight versus four, so the size gate always
// passes), the manifest must advertise the backbone and per-model digests
// consistently, a client assembling backbone+delta must reproduce the
// canonical weights bit for bit, and playback must be pixel-identical to
// the stripped-manifest control while downloading fewer model bytes.
func TestDeltaStageModelStream(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.Delta = DeltaConfig{Enabled: true, MaxPSNRDrop: 100}
	o := obs.New()
	cfg.Obs = o
	p, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Models) < 2 {
		t.Fatalf("clip clustered into %d models; need ≥ 2 to exercise deltas", len(p.Models))
	}
	man := p.Manifest
	if man.Backbone == nil {
		t.Fatal("manifest has no backbone")
	}
	bsm := p.Models[man.Backbone.Label]
	if bsm == nil {
		t.Fatalf("backbone label %d has no model", man.Backbone.Label)
	}
	if man.Backbone.Digest != stream.PayloadDigest(bsm.Bytes) || man.Backbone.Bytes != len(bsm.Bytes) {
		t.Fatal("backbone digest/size does not describe the backbone payload")
	}
	deltas := 0
	for label, sm := range p.Models {
		if label == man.Backbone.Label {
			if sm.Delta != nil {
				t.Fatalf("backbone %d has a delta verdict", label)
			}
			continue
		}
		if sm.Delta == nil || !sm.Delta.DeltaOK {
			t.Fatalf("model %d not delta-encoded under a permissive gate: %+v", label, sm.Delta)
		}
		deltas++
		mi := man.Models[label]
		if !mi.Delta || mi.BackboneDigest != man.Backbone.Digest {
			t.Fatalf("manifest entry %d does not advertise the delta: %+v", label, mi)
		}
		if mi.Bytes != len(sm.Delta.Bytes) || mi.Bytes >= mi.FullBytes || mi.FullBytes != len(sm.Bytes) {
			t.Fatalf("manifest entry %d sizes inconsistent: wire=%d full=%d", label, mi.Bytes, mi.FullBytes)
		}
		// Client-side assembly: backbone + delta must reproduce the
		// canonical weights bit for bit, matching the advertised digest.
		m, err := edsr.New(sm.Config, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.ApplyWeightsDelta(bsm.Model.Params(), sm.Delta.Bytes, m.Params()); err != nil {
			t.Fatalf("assembling model %d: %v", label, err)
		}
		assembled := nn.EncodeWeights(m.Params())
		if !bytes.Equal(assembled, sm.Bytes) {
			t.Fatalf("assembled model %d is not bit-identical to the origin's", label)
		}
		if stream.PayloadDigest(assembled) != mi.Digest {
			t.Fatalf("assembled model %d does not match its manifest digest", label)
		}
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["delta_models_total"]; got != int64(deltas) {
		t.Errorf("delta_models_total = %d, want %d", got, deltas)
	}
	if got := snap.Counters["delta_fallback_total"]; got != 0 {
		t.Errorf("delta_fallback_total = %d, want 0", got)
	}

	// Control arm: same weights, no delta shipping.
	ctrl := p.WithoutDelta()
	if ctrl.Manifest.Backbone != nil {
		t.Fatal("WithoutDelta manifest still advertises a backbone")
	}
	res, err := NewPlayer(p).Play()
	if err != nil {
		t.Fatal(err)
	}
	cres, err := NewPlayer(ctrl).Play()
	if err != nil {
		t.Fatal(err)
	}
	framesIdentical(t, res.Frames, cres.Frames, "delta vs control playback")
	if res.ModelBytes >= cres.ModelBytes {
		t.Errorf("model stream downloaded %d model bytes, control %d; expected a saving",
			res.ModelBytes, cres.ModelBytes)
	}
	if res.BackboneBytes+res.DeltaModelBytes+res.FullModelBytes != res.ModelBytes {
		t.Errorf("breakdown %d+%d+%d does not sum to ModelBytes %d",
			res.BackboneBytes, res.DeltaModelBytes, res.FullModelBytes, res.ModelBytes)
	}
	if res.BackboneBytes != len(bsm.Bytes) {
		t.Errorf("BackboneBytes = %d, want the backbone paid once (%d)", res.BackboneBytes, len(bsm.Bytes))
	}
	if cres.FullModelBytes != cres.ModelBytes || cres.BackboneBytes != 0 || cres.DeltaModelBytes != 0 {
		t.Errorf("control breakdown %d/%d/%d should be all full fetches",
			cres.BackboneBytes, cres.DeltaModelBytes, cres.FullModelBytes)
	}
}

// TestDeltaGateForcesFallback: an unsatisfiable gate (negative
// MaxPSNRDrop) must keep every model shipping complete — no backbone in
// the manifest, every verdict a fallback — and playback must equal the
// delta-free pipeline bit for bit (the trained weights were never
// replaced).
func TestDeltaGateForcesFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.Delta = DeltaConfig{Enabled: true, MaxPSNRDrop: -100}
	o := obs.New()
	cfg.Obs = o
	p, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Manifest.Backbone != nil {
		t.Fatal("fully gated-out run still advertises a backbone")
	}
	var fallbacks int
	for label, sm := range p.Models {
		if sm.Delta == nil {
			continue
		}
		if sm.Delta.DeltaOK {
			t.Errorf("model %d passed an unsatisfiable gate", label)
		}
		if p.Manifest.Models[label].Delta {
			t.Errorf("manifest advertises a delta for gated-out model %d", label)
		}
		fallbacks++
	}
	if fallbacks == 0 && len(p.Models) >= 2 {
		t.Fatal("no fallback verdicts recorded")
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["delta_fallback_total"]; got != int64(fallbacks) {
		t.Errorf("delta_fallback_total = %d, want %d", got, fallbacks)
	}
	if got := snap.Counters["delta_models_total"]; got != 0 {
		t.Errorf("delta_models_total = %d, want 0", got)
	}
	// The gated-out pipeline must be byte-identical to one that never ran
	// the stage: fallbacks leave the trained weights untouched.
	plain, err := Prepare(frames, clip.FPS, tinyServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	for label, sm := range plain.Models {
		if !bytes.Equal(sm.Bytes, p.Models[label].Bytes) {
			t.Fatalf("fallback changed model %d weights", label)
		}
	}
}

// TestDeltaPersistRoundTrip: Save/Load must carry the delta verdicts and
// payloads (each model record's delta verdict plus its dcW5 object),
// rebuild the same model-stream manifest, compose with int8 re-arming, and play back
// pixel-identically.
func TestDeltaPersistRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 7, 3, 8)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.Delta = DeltaConfig{Enabled: true, MaxPSNRDrop: 100}
	cfg.Quant = QuantConfig{Enabled: true, MaxPSNRDrop: 100}
	p, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Manifest.Backbone == nil {
		t.Fatal("no backbone to persist")
	}
	dir := t.TempDir()
	if err := p.Save(dir); err != nil {
		t.Fatal(err)
	}
	q, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if q.Manifest.Backbone == nil || *q.Manifest.Backbone != *p.Manifest.Backbone {
		t.Fatalf("loaded backbone %+v, want %+v", q.Manifest.Backbone, p.Manifest.Backbone)
	}
	for label, sm := range p.Models {
		lm := q.Models[label]
		if lm == nil {
			t.Fatalf("loaded artifact lost model %d", label)
		}
		if (sm.Delta == nil) != (lm.Delta == nil) {
			t.Fatalf("model %d delta verdict not persisted", label)
		}
		if sm.Delta != nil {
			if lm.Delta.DeltaOK != sm.Delta.DeltaOK || lm.Delta.BackboneLabel != sm.Delta.BackboneLabel {
				t.Fatalf("model %d delta verdict drifted: %+v vs %+v", label, lm.Delta, sm.Delta)
			}
			if !bytes.Equal(lm.Delta.Bytes, sm.Delta.Bytes) {
				t.Fatalf("model %d delta payload drifted through persistence", label)
			}
		}
		if got, want := q.Manifest.Models[label], p.Manifest.Models[label]; got.Delta != want.Delta ||
			got.Digest != want.Digest || got.Bytes != want.Bytes || got.FullBytes != want.FullBytes {
			t.Fatalf("model %d manifest entry drifted: %+v vs %+v", label, got, want)
		}
	}
	pres, err := NewPlayer(p).Play()
	if err != nil {
		t.Fatal(err)
	}
	qres, err := NewPlayer(q).Play()
	if err != nil {
		t.Fatal(err)
	}
	framesIdentical(t, pres.Frames, qres.Frames, "prepared vs loaded playback")
	if qres.Decode.EnhancedInt8 == 0 {
		t.Error("loaded artifact served no int8 frames")
	}
	if qres.ModelBytes != pres.ModelBytes || qres.BackboneBytes != pres.BackboneBytes {
		t.Errorf("loaded byte accounting drifted: %d/%d vs %d/%d",
			qres.ModelBytes, qres.BackboneBytes, pres.ModelBytes, pres.BackboneBytes)
	}
}

// TestDeltaCheckpointResume: a second Prepare over a complete checkpoint
// must restore the delta stage (no retraining, same verdicts, same
// payloads) and reproduce the run bit for bit.
func TestDeltaCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.Delta = DeltaConfig{Enabled: true, MaxPSNRDrop: 100}
	cfg.CheckpointDir = t.TempDir()

	first, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("first Prepare: %v", err)
	}
	o := obs.New()
	cfg.Obs = o
	second, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("resumed Prepare: %v", err)
	}
	comparePrepared(t, second, first)
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["train_steps_total"]; got != 0 {
		t.Errorf("resumed run trained %d steps, want 0", got)
	}
	for label, sm := range first.Models {
		rm := second.Models[label]
		if (sm.Delta == nil) != (rm.Delta == nil) {
			t.Fatalf("model %d delta verdict lost across resume", label)
		}
		if sm.Delta != nil {
			if rm.Delta.DeltaOK != sm.Delta.DeltaOK || !bytes.Equal(rm.Delta.Bytes, sm.Delta.Bytes) {
				t.Fatalf("model %d delta drifted across resume", label)
			}
		}
		if !bytes.Equal(sm.Bytes, rm.Bytes) {
			t.Fatalf("model %d canonical weights drifted across resume", label)
		}
	}
}
