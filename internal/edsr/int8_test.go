package edsr

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dcsr/internal/nn"
	"dcsr/internal/quality"
	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// trainedModel returns a briefly trained dcSR-style model plus the
// frame it was trained on (which doubles as the calibration input).
func trainedModel(t testing.TB, seed int64) (*Model, *video.RGB) {
	t.Helper()
	m, err := New(Config{Filters: 8, ResBlocks: 2}, seed)
	if err != nil {
		t.Fatal(err)
	}
	f := genFrame(t, 64, 48, seed)
	if _, err := m.Train([]Pair{{Low: f, High: f}}, TrainOptions{Steps: 3, PatchSize: 16}); err != nil {
		t.Fatal(err)
	}
	return m, f
}

// TestEnhanceInt8CloseToFloat32 checks the quantized path stays visually
// equivalent to float32 on the calibration distribution — the per-layer
// scales come from the same frames the model trained on, dcSR's serving
// situation.
func TestEnhanceInt8CloseToFloat32(t *testing.T) {
	m, f := trainedModel(t, 11)
	if m.Int8Ready() {
		t.Fatal("Int8Ready before calibration")
	}
	if err := m.Calibrate([]*video.RGB{f}); err != nil {
		t.Fatal(err)
	}
	if !m.Int8Ready() {
		t.Fatal("Int8Ready false after Calibrate")
	}
	want := m.Enhance(f)
	got := m.EnhanceInt8(f)
	if psnr := quality.PSNR(got, want); psnr < 40 {
		t.Fatalf("int8 vs float32 PSNR = %.1f dB, want >= 40", psnr)
	}
}

// TestEnhanceInt8DeterministicAcrossWorkers pins bit-identical quantized
// output across worker counts (run under -race by make verify): integer
// accumulation is associative, and every float step is a fixed
// per-element expression.
func TestEnhanceInt8DeterministicAcrossWorkers(t *testing.T) {
	m, f := trainedModel(t, 12)
	if err := m.Calibrate([]*video.RGB{f}); err != nil {
		t.Fatal(err)
	}
	var ref *video.RGB
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		tensor.ShutdownPool()
		got := m.EnhanceInt8(f)
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
		if ref == nil {
			ref = got
			continue
		}
		for j := range got.Pix {
			if got.Pix[j] != ref.Pix[j] {
				t.Fatalf("procs=%d: pixel %d differs from single-worker output", procs, j)
			}
		}
	}
}

// TestEnhanceInt8SteadyStateAllocs mirrors TestEnhanceSteadyStateAllocs
// for the quantized path: zero allocations per ForwardInferenceInt8
// after warmup, EnhanceInt8 pays only for the returned frame, and a
// second model's first quantized pass in the warmed workspace is free.
func TestEnhanceInt8SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	tensor.ShutdownPool()
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	m, f := trainedModel(t, 13)
	next, _ := trainedModel(t, 14) // before the warm-up: its garbage must not empty the scratch pools after it
	for _, c := range []*Model{m, next} {
		if err := c.Calibrate([]*video.RGB{f}); err != nil {
			t.Fatal(err)
		}
	}
	x := ToTensor(f)
	m.ForwardInferenceInt8(x)
	m.ForwardInferenceInt8(x)
	if avg := testing.AllocsPerRun(10, func() { m.ForwardInferenceInt8(x) }); avg > 0 {
		t.Errorf("ForwardInferenceInt8 allocates %.1f objects per frame, want 0", avg)
	}
	m.EnhanceInt8(f)
	if avg := testing.AllocsPerRun(10, func() { m.EnhanceInt8(f) }); avg > 4 {
		t.Errorf("EnhanceInt8 allocates %.1f objects per frame, want <= 4", avg)
	}
	next.SetWorkspace(m.workspace())
	if n, _ := mallocs(func() { next.ForwardInferenceInt8(x) }); n != 0 {
		t.Errorf("a second model's first ForwardInferenceInt8 in the warmed workspace allocated %d objects, want 0", n)
	}
}

// TestActScalesRoundTrip checks that scales persisted from one process
// re-arm an identical model to bit-identical quantized output.
func TestActScalesRoundTrip(t *testing.T) {
	m1, f := trainedModel(t, 14)
	if err := m1.Calibrate([]*video.RGB{f}); err != nil {
		t.Fatal(err)
	}
	scales := m1.ActScales()
	if len(scales) != len(m1.convs()) {
		t.Fatalf("ActScales returned %d entries for %d convs", len(scales), len(m1.convs()))
	}
	m2, _ := trainedModel(t, 14) // same seed + training → same weights
	if err := m2.CalibrateFromScales(scales); err != nil {
		t.Fatal(err)
	}
	a, b := m1.EnhanceInt8(f), m2.EnhanceInt8(f)
	for j := range a.Pix {
		if a.Pix[j] != b.Pix[j] {
			t.Fatalf("pixel %d differs after scale round trip", j)
		}
	}
}

// TestSnapInt8GridPayload: snapping moves no int8 output bit; the snapped
// model's int8-grid payload is GridSizeBytes long; and a model loaded
// from it and re-armed from the scales runs the same bits in both
// precisions.
func TestSnapInt8GridPayload(t *testing.T) {
	m, f := trainedModel(t, 15)
	if err := m.SnapInt8(); err == nil {
		t.Fatal("SnapInt8 before calibration succeeded")
	}
	if err := m.Calibrate([]*video.RGB{f}); err != nil {
		t.Fatal(err)
	}
	before := m.EnhanceInt8(f)
	if err := m.SnapInt8(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.EnhanceInt8(f).Pix, before.Pix) {
		t.Fatal("snapping moved an int8 output bit")
	}
	data, err := nn.EncodeWeightsGrid(m.Params())
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != m.Cfg.GridSizeBytes() {
		t.Fatalf("grid payload is %d bytes, GridSizeBytes says %d", len(data), m.Cfg.GridSizeBytes())
	}
	viewer, err := New(m.Cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadWeights(bytes.NewReader(data), viewer.Params()); err != nil {
		t.Fatal(err)
	}
	if err := viewer.CalibrateFromScales(m.ActScales()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viewer.EnhanceInt8(f).Pix, before.Pix) || !bytes.Equal(viewer.Enhance(f).Pix, m.Enhance(f).Pix) {
		t.Fatal("the model loaded from the grid payload runs other bits than the snapped one")
	}
	for _, cfg := range []Config{{Filters: 4, ResBlocks: 1}, {Filters: 6, ResBlocks: 3, Scale: 2}, {Filters: 5, ResBlocks: 1, Scale: 4}} {
		m, err := New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Calibrate([]*video.RGB{genFrame(t, 12, 8, 2)}); err != nil {
			t.Fatal(err)
		}
		if err := m.SnapInt8(); err != nil {
			t.Fatal(err)
		}
		if data, err := nn.EncodeWeightsGrid(m.Params()); err != nil || int64(len(data)) != cfg.GridSizeBytes() {
			t.Errorf("%v: grid payload %d bytes (err %v), GridSizeBytes %d", cfg, len(data), err, cfg.GridSizeBytes())
		}
	}
}

func TestCalibrateErrors(t *testing.T) {
	m, err := New(Config{Filters: 4, ResBlocks: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate(nil); err == nil {
		t.Fatal("Calibrate with no frames did not error")
	}
	if err := m.CalibrateFromScales([]float32{1, 2}); err == nil {
		t.Fatal("CalibrateFromScales with wrong count did not error")
	}
}

// TestCalibrateFromScalesRejectsHostile checks the scale vector a
// manifest or artifact supplies: one NaN, ±Inf, negative or subnormal
// (whose multiplier 127/scale overflows) scale is an error and arms
// nothing, while 0 — a dead ReLU's range — is accepted.
func TestCalibrateFromScalesRejectsHostile(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, bad := range []float32{nan, inf, -inf, -1, -1e-30, 1e-39} {
		m, err := New(Config{Filters: 4, ResBlocks: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		scales := make([]float32, len(m.convs()))
		for i := range scales {
			scales[i] = 1
		}
		scales[2] = bad
		if err := m.CalibrateFromScales(scales); err == nil {
			t.Errorf("scale %v: CalibrateFromScales returned nil", bad)
		}
		if m.Int8Ready() {
			t.Errorf("scale %v: a rejected scale vector armed the int8 path", bad)
		}
	}
	m, err := New(Config{Filters: 4, ResBlocks: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	scales := make([]float32, len(m.convs()))
	for i := range scales {
		scales[i] = 1
	}
	scales[2] = 0
	if err := m.CalibrateFromScales(scales); err != nil || !m.Int8Ready() {
		t.Fatalf("a zero scale was rejected: err %v, Int8Ready %v", err, m.Int8Ready())
	}
}

// TestCalibratePanicStopsObserving checks a calibration pass that panics
// (here on a nil frame) leaves no convolution in calibration mode: later
// inference must not keep widening activation ranges behind the caller's
// back. It also checks CalibrateEnhance's frames are Enhance's.
func TestCalibratePanicStopsObserving(t *testing.T) {
	m, f := trainedModel(t, 15)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("calibrating on a nil frame did not panic")
			}
		}()
		m.Calibrate([]*video.RGB{f, nil})
	}()
	before := m.ActScales()
	loud := video.NewRGB(f.W, f.H)
	for i := range loud.Pix {
		loud.Pix[i] = uint8(255 * (i % 2))
	}
	m.Enhance(loud)
	for i, s := range m.ActScales() {
		if s != before[i] {
			t.Fatalf("conv %d still observing after a panicked calibration: range %v -> %v", i, before[i], s)
		}
	}
	got, err := m.CalibrateEnhance([]*video.RGB{f, loud})
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range []*video.RGB{f, loud} {
		if want := m.Enhance(in); !bytes.Equal(got[i].Pix, want.Pix) {
			t.Fatalf("CalibrateEnhance frame %d is not Enhance's", i)
		}
	}
}

// TestForwardInferenceInt8Scales exercises the upsampling tail on the
// quantized path (scale 2 and 4 shapes, shuffle in float32).
func TestForwardInferenceInt8Scales(t *testing.T) {
	for _, scale := range []int{2, 4} {
		t.Run(fmt.Sprintf("x%d", scale), func(t *testing.T) {
			m, err := New(Config{Filters: 8, ResBlocks: 2, Scale: scale}, 7)
			if err != nil {
				t.Fatal(err)
			}
			low := genFrame(t, 48, 32, 5)
			high := genFrame(t, 48*scale, 32*scale, 5)
			if _, err := m.Train([]Pair{{Low: low, High: high}}, TrainOptions{Steps: 3, PatchSize: 16}); err != nil {
				t.Fatal(err)
			}
			if err := m.Calibrate([]*video.RGB{low}); err != nil {
				t.Fatal(err)
			}
			want := m.Enhance(low)
			got := m.EnhanceInt8(low)
			if got.W != want.W || got.H != want.H {
				t.Fatalf("shape mismatch: %dx%d vs %dx%d", got.W, got.H, want.W, want.H)
			}
			if psnr := quality.PSNR(got, want); psnr < 35 {
				t.Fatalf("int8 vs float32 PSNR = %.1f dB at x%d, want >= 35", psnr, scale)
			}
		})
	}
}
