package nn

import (
	"math"
	"math/rand"
	"testing"

	"dcsr/internal/tensor"
)

// calibrateOn runs one float32 inference pass in calibration mode so the
// conv records its activation range, then quantizes.
func calibrateOn(c *Conv2D, x *tensor.Tensor) {
	c.BeginCalibration()
	convRows(c, x, nil, 0, nil, false, false)
	c.EndCalibration()
	c.QuantizeInt8()
}

func TestConv2DCalibrationRecordsMaxAbs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(2, 3, 3, 1, 1).InitHe(rng)
	x1 := tensor.New(1, 2, 4, 4)
	x1.Randn(rng, 1)
	x2 := tensor.New(1, 2, 4, 4)
	x2.Randn(rng, 3)
	c.BeginCalibration()
	c.Observe(tensor.MaxAbs(x1.Data))
	c.Observe(tensor.MaxAbs(x2.Data))
	c.EndCalibration()
	want := x1.MaxAbs()
	if m := x2.MaxAbs(); m > want {
		want = m
	}
	if got := c.ActMax(); got != want {
		t.Fatalf("ActMax = %v, want %v", got, want)
	}
	// Out of calibration mode the range must not move.
	x3 := tensor.New(1, 2, 4, 4)
	x3.Randn(rng, 1e6)
	c.Observe(tensor.MaxAbs(x3.Data))
	if got := c.ActMax(); got != want {
		t.Fatalf("ActMax moved outside calibration: %v, want %v", got, want)
	}
}

// TestConv2DInt8TracksFloat32 bounds the int8 path's deviation from the
// float32 path by the analytic quantization error: with input step
// actMax/127 and per-channel weight step wScale, each of the InC·K·K
// accumulated terms errs by at most half a step on each operand.
func TestConv2DInt8TracksFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(3, 5, 3, 1, 1).InitHe(rng)
	x := tensor.New(2, 3, 8, 7)
	x.Randn(rng, 1)
	calibrateOn(c, x)
	want := convRows(c, x, nil, 0, nil, false, false)
	got := convRows(c, x, nil, 0, nil, false, true)
	colRows := c.Spec.InC * c.Spec.K * c.Spec.K
	tol := float64(colRows) * float64(c.Wt.W.MaxAbs()) * float64(c.ActMax()) / 100
	for i := range got.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > tol {
			t.Fatalf("element %d off by %v (tol %v): int8 %v, f32 %v", i, d, tol, got.Data[i], want.Data[i])
		}
	}
}

func TestConv2DInt8Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(4, 4, 3, 1, 1).InitHe(rng)
	x := tensor.New(1, 4, 9, 11)
	x.Randn(rng, 1)
	calibrateOn(c, x)
	first := convRows(c, x, nil, 0, nil, false, true)
	for pass := 0; pass < 2; pass++ {
		got := convRows(c, x, nil, 0, nil, false, true)
		for i := range got.Data {
			if got.Data[i] != first.Data[i] {
				t.Fatalf("pass %d: element %d not bit-identical", pass, i)
			}
		}
	}
}

func TestConv2DInt8PanicsBeforeQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(1, 1, 3, 1, 1).InitHe(rng)
	defer func() {
		if recover() == nil {
			t.Fatal("int8 inference before QuantizeInt8 did not panic")
		}
	}()
	x := tensor.New(1, 1, 3, 3)
	convRows(c, x, nil, 0, nil, false, true)
}

// TestSequentialInt8FallsBackPerLayer checks that a stack with one
// quantized and one unquantized conv runs the former on int8 and the
// latter on the bit-exact float32 path.
func TestSequentialInt8FallsBackPerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seq := &Sequential{Layers: []Layer{
		NewConv2D(2, 6, 3, 1, 1).InitHe(rng),
		&ReLU{},
		NewResBlock(6, 0.5).InitHe(rng),
		NewConv2D(6, 4, 3, 1, 1).InitHe(rng),
		&PixelShuffle{R: 2},
	}}
	var convs []*Conv2D
	for _, l := range seq.Layers {
		switch v := l.(type) {
		case *Conv2D:
			convs = append(convs, v)
		case *ResBlock:
			convs = append(convs, v.Conv1, v.Conv2)
		}
	}
	x := tensor.New(1, 2, 6, 5)
	x.Randn(rng, 1)
	for _, c := range convs {
		if c.Int8Ready() {
			t.Fatal("Int8Ready before any quantization")
		}
	}
	// Nothing quantized: the int8 entry point must reproduce the float32
	// path exactly.
	want := inferSeq(seq, x.Clone(), false)
	got := inferSeq(seq, x.Clone(), true)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("unquantized fallback not bit-exact at %d", i)
		}
	}
	// Quantize everything: calibrate every conv in one stack-wide pass
	// (each records its own layer input), then build the int8 states.
	for _, c := range convs {
		c.BeginCalibration()
	}
	inferSeq(seq, x.Clone(), false)
	for _, c := range convs {
		c.EndCalibration()
		c.QuantizeInt8()
	}
	for _, c := range convs {
		if !c.Int8Ready() {
			t.Fatal("Int8Ready false after quantizing every conv")
		}
	}
	want = inferSeq(seq, x.Clone(), false)
	got = inferSeq(seq, x.Clone(), true)
	var maxDiff float64
	for i := range got.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.5 {
		t.Fatalf("quantized stack drifted %v from float32", maxDiff)
	}
}

// TestInt8ResidualEpilogue pins the int8 residual adds fused into the
// convolution epilogue against the separate scaled-add pass they
// replaced: a Conv2D's row kernel, into a fresh tensor and in place
// over res, against the same rows without a residual plus
// tensor.AddScaled.
func TestInt8ResidualEpilogue(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(2, 4, 7, 9)
	x.Randn(rng, 1)
	res := tensor.New(x.Shape...)
	res.Randn(rng, 1)
	same := func(what string, got, want *tensor.Tensor) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
			}
		}
	}

	c := NewConv2D(4, 4, 3, 1, 1).InitHe(rng)
	calibrateOn(c, x)
	want := tensor.New(x.Shape...)
	tensor.AddScaled(want.Data, res.Data, convRows(c, x, nil, 0, nil, false, true).Data, 0.1)
	same("Conv2D residual", convRows(c, x, res, 0.1, nil, false, true), want)
	inPlace := res.Clone()
	same("Conv2D residual in place", convRows(c, x, inPlace, 0.1, inPlace, false, true), want)
}

func TestQuantizeRowInt8(t *testing.T) {
	// Zero rows get scale 1 and all-zero codes.
	dst := make([]int8, 4)
	if s := quantizeRowInt8(make([]float32, 4), dst); s != 1 {
		t.Fatalf("zero-row scale = %v, want 1", s)
	}
	for _, v := range dst {
		if v != 0 {
			t.Fatal("zero row quantized to nonzero")
		}
	}
	// Max element maps to exactly ±127.
	row := []float32{0.5, -2, 1}
	s := quantizeRowInt8(row, dst[:3])
	if s != 2.0/127 {
		t.Fatalf("scale = %v, want %v", s, 2.0/127)
	}
	if dst[1] != -127 {
		t.Fatalf("max element quantized to %d, want -127", dst[1])
	}
}
