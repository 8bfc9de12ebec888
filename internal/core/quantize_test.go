package core

import (
	"testing"

	"dcsr/internal/obs"
	"dcsr/internal/quality"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// TestQuantQualityGateForcesFallback drives the gate to both verdicts:
// an unsatisfiable bound (negative MaxPSNRDrop) must mark every cluster
// float32-only and the player must serve zero int8 frames, while a
// permissive bound must pass every cluster and serve every enhanced
// frame on the int8 path.
func TestQuantQualityGateForcesFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()

	run := func(maxDrop float64) (*Prepared, *obs.Obs) {
		cfg := tinyServerConfig()
		cfg.Quant = QuantConfig{Enabled: true, MaxPSNRDrop: maxDrop}
		o := obs.New()
		cfg.Obs = o
		p, err := Prepare(frames, clip.FPS, cfg)
		if err != nil {
			t.Fatalf("Prepare(maxDrop=%v): %v", maxDrop, err)
		}
		return p, o
	}

	// Unsatisfiable gate: psnrF − psnrI can never be ≤ −100.
	p, o := run(-100)
	for label, sm := range p.Models {
		if sm.Quant == nil {
			t.Fatalf("model %d has no quant result", label)
		}
		if sm.Quant.Int8OK {
			t.Errorf("model %d passed an unsatisfiable gate (psnrF=%.1f psnrI=%.1f)",
				label, sm.Quant.PSNRFloat32, sm.Quant.PSNRInt8)
		}
		if p.Manifest.Models[label].Int8 {
			t.Errorf("manifest advertises int8 for gated-out model %d", label)
		}
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["quant_fallback_total"]; got != int64(len(p.Models)) {
		t.Errorf("quant_fallback_total = %d, want %d", got, len(p.Models))
	}
	if got := snap.Counters["quant_int8_models_total"]; got != 0 {
		t.Errorf("quant_int8_models_total = %d, want 0", got)
	}
	res, err := playDefault(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decode.Enhanced == 0 {
		t.Fatal("fallback playback enhanced nothing")
	}
	if res.Decode.EnhancedInt8 != 0 {
		t.Errorf("player served %d int8 frames from a fully gated-out manifest", res.Decode.EnhancedInt8)
	}

	// Permissive gate: every cluster passes and the player uses int8 for
	// every enhancement.
	p2, o2 := run(100)
	for label, sm := range p2.Models {
		if sm.Quant == nil || !sm.Quant.Int8OK {
			t.Errorf("model %d did not pass a permissive gate", label)
		}
		if !p2.Manifest.Models[label].Int8 {
			t.Errorf("manifest does not advertise int8 for passing model %d", label)
		}
	}
	snap2 := o2.Metrics.Snapshot()
	if got := snap2.Counters["quant_int8_models_total"]; got != int64(len(p2.Models)) {
		t.Errorf("quant_int8_models_total = %d, want %d", got, len(p2.Models))
	}
	if got := snap2.Counters["quant_fallback_total"]; got != 0 {
		t.Errorf("quant_fallback_total = %d, want 0", got)
	}
	res2, err := playDefault(p2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Decode.Enhanced == 0 || res2.Decode.EnhancedInt8 != res2.Decode.Enhanced {
		t.Errorf("int8 playback: Enhanced=%d EnhancedInt8=%d, want equal and > 0",
			res2.Decode.Enhanced, res2.Decode.EnhancedInt8)
	}

	// The player-side kill switch forces float32 even with an int8
	// manifest (the precision ablation).
	off := stream.DefaultOptions()
	off.Int8 = false
	res3, err := playOver(p2, p2, off)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Decode.EnhancedInt8 != 0 {
		t.Errorf("Int8=false player served %d int8 frames", res3.Decode.EnhancedInt8)
	}
}

// TestQuantPersistRoundTrip checks that Save/Load carries the quant
// metadata: the loaded artifact re-arms the passing models from their
// stored activation scales, rebuilds the same manifest flags, and
// serves int8 bit-identically to the preparing process.
func TestQuantPersistRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 7, 3, 8)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.Quant = QuantConfig{Enabled: true, MaxPSNRDrop: 100}
	p, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := p.Save(dir); err != nil {
		t.Fatal(err)
	}
	q, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for label, sm := range p.Models {
		lm := q.Models[label]
		if lm == nil {
			t.Fatalf("loaded artifact lost model %d", label)
		}
		if lm.Quant == nil || lm.Quant.Int8OK != sm.Quant.Int8OK {
			t.Fatalf("model %d quant result not persisted: %+v vs %+v", label, lm.Quant, sm.Quant)
		}
		if lm.Quant.PSNRFloat32 != sm.Quant.PSNRFloat32 || lm.Quant.PSNRInt8 != sm.Quant.PSNRInt8 {
			t.Errorf("model %d PSNRs drifted through persistence", label)
		}
		if !lm.Model.Int8Ready() {
			t.Errorf("loaded model %d not re-armed for int8", label)
		}
		if got, want := q.Manifest.Models[label].Int8, p.Manifest.Models[label].Int8; got != want {
			t.Errorf("model %d manifest int8 flag = %v, want %v", label, got, want)
		}
		// Bit-identical int8 serving from the stored scales.
		a := sm.Model.EnhanceInt8(p.LowIFrames[0])
		b := lm.Model.EnhanceInt8(p.LowIFrames[0])
		for j := range a.Pix {
			if a.Pix[j] != b.Pix[j] {
				t.Fatalf("model %d: pixel %d differs between prepared and loaded int8 output", label, j)
			}
		}
	}
	res, err := playDefault(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decode.EnhancedInt8 == 0 {
		t.Error("loaded artifact served no int8 frames")
	}
}

// TestJudgePlaysWhatViewerPlays: the gates' judge plays a cluster's gate
// segments exactly as a viewer does. On a gated Prepare, for every
// cluster and both precisions, the judge's number equals the pooled luma
// PSNR of the same segments in the frames stream.Open + Play returns; the
// recorded int8 number equals the viewer's int8 play; a model the int8
// gate left unsnapped (one that ships as a delta) plays at its recorded
// float32 number, which the calibration outputs scored; and the judge
// given Enhance of the opening I frames scores what it scores running the
// model itself. Every judge call shares one gate, so each play decodes
// into the frames of the one before.
func TestJudgePlaysWhatViewerPlays(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	cfg := gatedConfig().withDefaults()
	p, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, g := &prepState{cfg: cfg, frames: frames, p: p}, new(gate)
	var deltas int
	for _, int8 := range []bool{false, true} {
		opts := stream.DefaultOptions()
		opts.Int8 = int8
		res, err := playOver(p, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		for label, sm := range p.Models {
			segs := p.clusterSegments(label, cfg.Quant.MaxFrames)
			var mse float64
			var n int
			for _, si := range segs {
				seg := p.Segments[si]
				for d := seg.Start; d < seg.End; d++ {
					mse += quality.LumaMSE(res.Frames[d], frames[d])
				}
				n += seg.End - seg.Start
			}
			viewer := mseToPSNR(mse / float64(n))
			judged, err := s.judge(g, segs, sm.Model, int8, nil)
			if err != nil {
				t.Fatal(err)
			}
			if judged != viewer {
				t.Errorf("model %d int8=%v: judge %v dB, viewer %v dB", label, int8, judged, viewer)
			}
			shipsDelta := sm.Delta != nil && sm.Delta.DeltaOK
			switch {
			case int8 && sm.Quant.PSNRInt8 != viewer:
				t.Errorf("model %d: recorded int8 %v dB, viewer %v dB", label, sm.Quant.PSNRInt8, viewer)
			case !int8 && shipsDelta && sm.Quant.PSNRFloat32 != viewer:
				t.Errorf("model %d: recorded float32 %v dB, viewer %v dB", label, sm.Quant.PSNRFloat32, viewer)
			}
			if int8 {
				continue
			}
			if shipsDelta {
				deltas++
			}
			opening := make([]*video.RGB, len(segs))
			for i, si := range segs {
				opening[i] = sm.Model.Enhance(p.LowIFrames[si])
			}
			if reused, err := s.judge(g, segs, sm.Model, false, opening); err != nil || reused != judged {
				t.Errorf("model %d: judge with the opening frames given %v dB (%v), running the model %v dB", label, reused, err, judged)
			}
		}
	}
	if deltas == 0 {
		t.Fatal("no model ships as a delta: the recorded float32 number went unchecked")
	}
}
