package device

import (
	"errors"
	"math"
	"testing"

	"dcsr/internal/edsr"
)

// segFrames is the per-segment frame count used in the FPS evaluation
// (matching the bench harness).
const segFrames = 60

func TestInferenceTimePositiveAndOrdered(t *testing.T) {
	for _, p := range []Profile{JetsonNX, Laptop, Desktop} {
		t1, err := p.InferenceTime(edsr.ConfigDCSR1, 1280, 720)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		t3, err := p.InferenceTime(edsr.ConfigDCSR3, 1280, 720)
		if err != nil {
			t.Fatal(err)
		}
		if t1 <= 0 || t3 <= t1 {
			t.Fatalf("%s: inference times not ordered: dcSR-1 %.4f, dcSR-3 %.4f", p.Name, t1, t3)
		}
	}
}

func TestBigModelOOMAt4KOnJetsonOnly(t *testing.T) {
	// Paper Fig 8(c): "NAS and NEMO cannot even run for 4K because of
	// running out of memory" on the Jetson; laptop and desktop can.
	_, err := JetsonNX.InferenceTime(edsr.ConfigBig, Res4K.W, Res4K.H)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Jetson big model at 4K: want OOM, got %v", err)
	}
	// dcSR micro models fit on the Jetson at 4K.
	if _, err := JetsonNX.InferenceTime(edsr.ConfigDCSR3, Res4K.W, Res4K.H); err != nil {
		t.Fatalf("Jetson dcSR-3 at 4K should fit: %v", err)
	}
	// Big model fits at 1080p on the Jetson.
	if _, err := JetsonNX.InferenceTime(edsr.ConfigBig, Res1080p.W, Res1080p.H); err != nil {
		t.Fatalf("Jetson big model at 1080p should fit: %v", err)
	}
	for _, p := range []Profile{Laptop, Desktop} {
		if _, err := p.InferenceTime(edsr.ConfigBig, Res4K.W, Res4K.H); err != nil {
			t.Fatalf("%s big model at 4K should fit: %v", p.Name, err)
		}
	}
}

func TestFig8DcSR1MeetsRealTimeOnJetson(t *testing.T) {
	// Paper Fig 8(a-c): dcSR-1 meets 30 FPS at one inference per segment
	// for all three resolutions on the mobile-grade device.
	for _, r := range []Resolution{Res720p, Res1080p, Res4K} {
		fps, err := JetsonNX.SegmentFPS(PlaybackSpec{
			Res: r, Model: edsr.ConfigDCSR1, FramesPerSegment: segFrames, Inferences: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if fps < 30 {
			t.Errorf("dcSR-1 at %s: %.1f FPS < 30", r.Name, fps)
		}
	}
}

func TestFig8NEMOMarginalAt720pLowAt1080p(t *testing.T) {
	// NEMO (big model on I frames): ≥30 FPS only for few inferences at
	// 720p; below 30 at 1080p even for one inference.
	fps720n1, err := JetsonNX.SegmentFPS(PlaybackSpec{Res: Res720p, Model: edsr.ConfigBig, FramesPerSegment: segFrames, Inferences: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fps720n1 < 30 {
		t.Errorf("NEMO 720p n=1: %.1f FPS, paper shows ≥30 under few instances", fps720n1)
	}
	fps720n5, err := JetsonNX.SegmentFPS(PlaybackSpec{Res: Res720p, Model: edsr.ConfigBig, FramesPerSegment: segFrames, Inferences: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fps720n5 >= 30 {
		t.Errorf("NEMO 720p n=5: %.1f FPS, should fall below 30", fps720n5)
	}
	fps1080, err := JetsonNX.SegmentFPS(PlaybackSpec{Res: Res1080p, Model: edsr.ConfigBig, FramesPerSegment: segFrames, Inferences: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fps1080 >= 30 {
		t.Errorf("NEMO 1080p n=1: %.1f FPS, paper shows significantly below 30", fps1080)
	}
}

func TestFig8NASBelowOneFPS(t *testing.T) {
	// NAS infers every frame: below 1 FPS at 720p and 1080p on the Jetson.
	for _, r := range []Resolution{Res720p, Res1080p} {
		fps, err := JetsonNX.SegmentFPS(PlaybackSpec{
			Res: r, Model: edsr.ConfigBig, FramesPerSegment: segFrames, Inferences: segFrames,
		})
		if err != nil {
			t.Fatal(err)
		}
		if fps >= 1 {
			t.Errorf("NAS at %s: %.2f FPS, paper shows <1", r.Name, fps)
		}
	}
}

func TestFig12DcSRAlwaysRealTimeAt4K(t *testing.T) {
	// Paper Fig 12: on laptop and desktop at 4K, dcSR meets 30 FPS
	// regardless of configuration and inference count (1–10), NEMO only
	// under few instances, NAS never.
	for _, p := range []Profile{Laptop, Desktop} {
		for _, cfg := range []edsr.Config{edsr.ConfigDCSR1, edsr.ConfigDCSR2, edsr.ConfigDCSR3} {
			for n := 1; n <= 10; n++ {
				fps, err := p.SegmentFPS(PlaybackSpec{Res: Res4K, Model: cfg, FramesPerSegment: segFrames, Inferences: n})
				if err != nil {
					t.Fatal(err)
				}
				if fps < 30 {
					t.Errorf("%s dcSR(%v) n=%d: %.1f FPS < 30", p.Name, cfg, n, fps)
				}
			}
		}
		nemo1, _ := p.SegmentFPS(PlaybackSpec{Res: Res4K, Model: edsr.ConfigBig, FramesPerSegment: segFrames, Inferences: 1})
		nemo8, _ := p.SegmentFPS(PlaybackSpec{Res: Res4K, Model: edsr.ConfigBig, FramesPerSegment: segFrames, Inferences: 8})
		if nemo1 < 30 {
			t.Errorf("%s NEMO n=1: %.1f FPS, want ≥30 under few instances", p.Name, nemo1)
		}
		if nemo8 >= 30 {
			t.Errorf("%s NEMO n=8: %.1f FPS, should fall below 30", p.Name, nemo8)
		}
		nas, _ := p.SegmentFPS(PlaybackSpec{Res: Res4K, Model: edsr.ConfigBig, FramesPerSegment: segFrames, Inferences: segFrames})
		if nas >= 30 {
			t.Errorf("%s NAS: %.1f FPS, must fail the 30 FPS requirement", p.Name, nas)
		}
	}
}

func TestFig1aBigModelBelow15FPSOnDesktop(t *testing.T) {
	// Paper Fig 1(a): single-frame inference of the big model is below
	// 15 FPS at every resolution.
	for _, r := range []Resolution{Res720p, Res1080p, Res4K} {
		ti, err := Desktop.InferenceTime(edsr.ConfigBig, r.W, r.H)
		if err != nil {
			t.Fatal(err)
		}
		if fps := 1 / ti; fps >= 15 {
			t.Errorf("big model at %s: %.1f FPS, paper shows <15", r.Name, fps)
		}
	}
}

func TestSegmentFPSMonotoneInInferences(t *testing.T) {
	prev := math.Inf(1)
	for n := 1; n <= 5; n++ {
		fps, err := JetsonNX.SegmentFPS(PlaybackSpec{Res: Res1080p, Model: edsr.ConfigDCSR2, FramesPerSegment: segFrames, Inferences: n})
		if err != nil {
			t.Fatal(err)
		}
		if fps >= prev {
			t.Fatalf("FPS not decreasing in inference count: %.2f at n=%d", fps, n)
		}
		prev = fps
	}
}

func TestSegmentFPSValidation(t *testing.T) {
	if _, err := JetsonNX.SegmentFPS(PlaybackSpec{Res: Res720p, Model: edsr.ConfigDCSR1}); err == nil {
		t.Error("accepted zero FramesPerSegment")
	}
}

func TestPowerTimelineShape(t *testing.T) {
	// Paper Fig 8(d): dcSR draws short low spikes; NAS draws sustained
	// high power; total energy ordering dcSR < NEMO < NAS.
	mk := func(model edsr.Config, inf int) float64 {
		_, e, err := JetsonNX.PowerTimeline(PlaybackSpec{
			Res: Res1080p, Model: model, FramesPerSegment: 225, Inferences: inf, FPS: 30,
		}, 800, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	dcsr := mk(edsr.ConfigDCSR1, 1)
	nemo := mk(edsr.ConfigBig, 1)
	nas := mk(edsr.ConfigBig, 225)
	t.Logf("energy over 800s: dcSR %.0f J, NEMO %.0f J, NAS %.0f J (ratios %.1fx / %.1fx)",
		dcsr, nemo, nas, nemo/dcsr, nas/dcsr)
	if !(dcsr < nemo && nemo < nas) {
		t.Fatalf("energy ordering violated: dcSR %.0f, NEMO %.0f, NAS %.0f", dcsr, nemo, nas)
	}
	if nemo/dcsr < 1.2 {
		t.Errorf("NEMO/dcSR energy ratio %.2f, paper reports ≈1.4x", nemo/dcsr)
	}
	if nas/dcsr < 2 {
		t.Errorf("NAS/dcSR energy ratio %.2f, paper reports ≈2.9x", nas/dcsr)
	}
}

func TestPowerTimelineSpikes(t *testing.T) {
	samples, _, err := JetsonNX.PowerTimeline(PlaybackSpec{
		Res: Res1080p, Model: edsr.ConfigDCSR1, FramesPerSegment: 225, Inferences: 1, FPS: 30,
	}, 60, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = math.Inf(1), 0
	for _, s := range samples {
		lo = math.Min(lo, s.Watts)
		hi = math.Max(hi, s.Watts)
	}
	if hi <= lo {
		t.Fatal("dcSR power trace must spike (periodic inference)")
	}
	// dcSR peak stays at/below ~2 W (paper: "consumes the least power,
	// up to 2W").
	if hi > 2.2 {
		t.Errorf("dcSR peak power %.2f W exceeds the ~2 W the paper reports", hi)
	}
	// NAS is sustained: min == max during continuous inference.
	nasSamples, _, err := JetsonNX.PowerTimeline(PlaybackSpec{
		Res: Res1080p, Model: edsr.ConfigBig, FramesPerSegment: 225, Inferences: 225, FPS: 30,
	}, 60, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var nasLo, nasHi float64 = math.Inf(1), 0
	for _, s := range nasSamples {
		nasLo = math.Min(nasLo, s.Watts)
		nasHi = math.Max(nasHi, s.Watts)
	}
	if nasHi-nasLo > 1e-9 {
		t.Errorf("NAS trace should be flat, spread %.3f W", nasHi-nasLo)
	}
	if nasHi < 2.5 {
		t.Errorf("NAS sustained power %.2f W, paper reports ≈2.8 W", nasHi)
	}
}

func TestOccupancy(t *testing.T) {
	if o := Occupancy(edsr.ConfigBig); o != 1 {
		t.Fatalf("big model occupancy %v, want 1", o)
	}
	if o := Occupancy(edsr.ConfigDCSR1); o >= 1 || o <= 0 {
		t.Fatalf("micro occupancy %v out of (0,1)", o)
	}
	if Occupancy(edsr.Config{}) != 0 {
		t.Fatal("zero config occupancy")
	}
}

func TestDecodeTime(t *testing.T) {
	dt := JetsonNX.DecodeTime(Res1080p, 30)
	want := Res1080p.Pixels() * 30 / JetsonNX.DecodeRate
	if math.Abs(dt-want) > 1e-9 {
		t.Fatalf("DecodeTime %v, want %v", dt, want)
	}
	// All profiles must decode 4K at 30 FPS in real time (hardware
	// decoders do; the bottleneck the paper addresses is SR, not decode).
	for _, p := range []Profile{JetsonNX, Laptop, Desktop} {
		if p.DecodeTime(Res4K, 30) > 1.0 {
			t.Errorf("%s cannot decode 4K30 in real time", p.Name)
		}
	}
}
