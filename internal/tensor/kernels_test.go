package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// maxRelDiff returns the largest elementwise |a-b| / max(1, |b|).
func maxRelDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if ab := math.Abs(float64(b[i])); ab > 1 {
			d /= ab
		}
		if d > m {
			m = d
		}
	}
	return m
}

// gemmShapes covers the blocking edges: row counts around the 4-row
// block size, singleton reduction (K=1), and singleton columns.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {1, 7, 5}, {2, 3, 4}, {3, 9, 1}, {4, 4, 4},
	{5, 16, 11}, {7, 1, 9}, {8, 27, 13}, {16, 144, 30}, {17, 5, 3},
}

func TestGEMMParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range gemmShapes {
		a := randSlice(rng, sh.m*sh.k)
		b := randSlice(rng, sh.k*sh.n)
		got := make([]float32, sh.m*sh.n)
		want := make([]float32, sh.m*sh.n)
		gemmRows(a, b, got, 0, sh.m, sh.k, sh.n, sh.n, epilogue{})
		matmulRef(a, b, want, sh.m, sh.k, sh.n)
		if d := maxRelDiff(got, want); d > 1e-5 {
			t.Errorf("gemmRows(%dx%dx%d) differs from reference by %g", sh.m, sh.k, sh.n, d)
		}
	}
}

func TestGEMMFusedBiasReLUParity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sh := range gemmShapes {
		a := randSlice(rng, sh.m*sh.k)
		b := randSlice(rng, sh.k*sh.n)
		bias := randSlice(rng, sh.m)
		got := make([]float32, sh.m*sh.n)
		want := make([]float32, sh.m*sh.n)
		gemmRows(a, b, got, 0, sh.m, sh.k, sh.n, sh.n, epilogue{bias: bias, relu: true})
		matmulRef(a, b, want, sh.m, sh.k, sh.n)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				v := want[i*sh.n+j] + bias[i]
				if v < 0 {
					v = 0
				}
				want[i*sh.n+j] = v
			}
		}
		if d := maxRelDiff(got, want); d > 1e-5 {
			t.Errorf("fused gemmRows(%dx%dx%d) differs from reference by %g", sh.m, sh.k, sh.n, d)
		}
	}
}

// TestGEMMStridedOutput checks the banded-conv write pattern: out rows
// spaced further apart than the row length, partial row ranges.
func TestGEMMStridedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, k, n, stride := 6, 9, 5, 12
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	got := make([]float32, m*stride)
	for i := range got {
		got[i] = 99 // sentinel outside the written columns
	}
	gemmRows(a, b, got, 1, m, k, n, stride, epilogue{})
	want := make([]float32, m*n)
	matmulRef(a, b, want, m, k, n)
	for i := 1; i < m; i++ {
		if d := maxRelDiff(got[i*stride:i*stride+n], want[i*n:(i+1)*n]); d > 1e-5 {
			t.Errorf("strided row %d differs by %g", i, d)
		}
		for j := n; j < stride; j++ {
			if got[i*stride+j] != 99 {
				t.Fatalf("row %d wrote outside its %d columns", i, n)
			}
		}
	}
	for j := 0; j < n; j++ {
		if got[j] != 99 {
			t.Fatalf("row 0 written despite lo=1")
		}
	}
}

func TestGEMMTAParity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sh := range gemmShapes {
		a := randSlice(rng, sh.m*sh.k)
		b := randSlice(rng, sh.m*sh.n)
		got := make([]float32, sh.k*sh.n)
		want := make([]float32, sh.k*sh.n)
		gemmTARows(a, b, got, 0, sh.k, sh.m, sh.k, sh.n)
		matmulTARef(a, b, want, sh.m, sh.k, sh.n)
		if d := maxRelDiff(got, want); d > 1e-5 {
			t.Errorf("gemmTARows(%dx%dx%d) differs from reference by %g", sh.m, sh.k, sh.n, d)
		}
	}
}

func TestGEMMBTParity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sh := range gemmShapes {
		a := randSlice(rng, sh.m*sh.n)
		b := randSlice(rng, sh.k*sh.n)
		got := make([]float32, sh.m*sh.k)
		want := make([]float32, sh.m*sh.k)
		gemmBTRows(a, b, got, 0, sh.m, sh.n, sh.k)
		matmulBTRef(a, b, want, sh.m, sh.n, sh.k)
		if d := maxRelDiff(got, want); d > 1e-5 {
			t.Errorf("gemmBTRows(%dx%dx%d) differs from reference by %g", sh.m, sh.n, sh.k, d)
		}
	}
}

// convSpecs covers the K=1 pointwise case and the 3×3 and 5×5 kernels
// at the one geometry Conv2DInfer takes, stride 1 with a (K−1)/2 pad.
var convSpecs = []ConvSpec{
	{InC: 3, OutC: 4, K: 1, Stride: 1, Pad: 0},
	{InC: 3, OutC: 5, K: 3, Stride: 1, Pad: 1},
	{InC: 2, OutC: 6, K: 5, Stride: 1, Pad: 2},
}

func TestConv2DInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// Strides and other pads are Conv2DForward's alone: Conv2DInfer
	// refuses them.
	for _, spec := range []ConvSpec{
		{InC: 2, OutC: 3, K: 1, Stride: 2, Pad: 0},
		{InC: 4, OutC: 2, K: 3, Stride: 2, Pad: 1},
		{InC: 1, OutC: 1, K: 3, Stride: 1, Pad: 0},
	} {
		x, wt := New(1, spec.InC, 9, 7), New(spec.OutC, spec.InC, spec.K, spec.K)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Conv2DInfer accepted %+v", spec)
				}
			}()
			Conv2DInfer(x, wt, nil, spec, false, nil)
		}()
	}
	for _, spec := range convSpecs {
		for _, batch := range []int{1, 3} {
			h, w := 9, 7
			x := New(batch, spec.InC, h, w)
			copy(x.Data, randSlice(rng, x.Len()))
			wt := New(spec.OutC, spec.InC, spec.K, spec.K)
			copy(wt.Data, randSlice(rng, wt.Len()))
			bias := New(spec.OutC)
			copy(bias.Data, randSlice(rng, bias.Len()))

			want, _ := Conv2DForward(x, wt, bias, spec)
			got := Conv2DInfer(x, wt, bias, spec, false, nil)
			if d := maxRelDiff(got.Data, want.Data); d > 1e-5 {
				t.Errorf("Conv2DInfer %+v batch=%d differs from Conv2DForward by %g", spec, batch, d)
			}

			gotRelu := Conv2DInfer(x, wt, bias, spec, true, nil)
			for i, v := range want.Data {
				if v < 0 {
					want.Data[i] = 0
				}
			}
			if d := maxRelDiff(gotRelu.Data, want.Data); d > 1e-5 {
				t.Errorf("fused ReLU Conv2DInfer %+v batch=%d differs by %g", spec, batch, d)
			}
		}
	}
}

// TestConv2DInferReusesBuffer checks the Ensure-based output recycling.
func TestConv2DInferReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	spec := ConvSpec{InC: 2, OutC: 3, K: 3, Stride: 1, Pad: 1}
	x := New(1, 2, 8, 8)
	copy(x.Data, randSlice(rng, x.Len()))
	wt := New(3, 2, 3, 3)
	copy(wt.Data, randSlice(rng, wt.Len()))
	out := Conv2DInfer(x, wt, nil, spec, false, nil)
	out2 := Conv2DInfer(x, wt, nil, spec, false, out)
	if &out.Data[0] != &out2.Data[0] {
		t.Fatal("Conv2DInfer did not reuse the provided output buffer")
	}
}

func TestEnsure(t *testing.T) {
	tn := Ensure(nil, 2, 3)
	if got := fmt.Sprint(tn.Shape); got != "[2 3]" || len(tn.Data) != 6 {
		t.Fatalf("Ensure(nil) = shape %v len %d", tn.Shape, len(tn.Data))
	}
	// Shrinking reuses storage.
	p := &tn.Data[0]
	tn = Ensure(tn, 3, 2)
	if &tn.Data[0] != p || len(tn.Data) != 6 {
		t.Fatal("Ensure did not reuse storage when shrinking/reshaping")
	}
	// Growing reallocates to the new size.
	tn = Ensure(tn, 4, 4)
	if len(tn.Data) != 16 {
		t.Fatalf("Ensure grow: len %d, want 16", len(tn.Data))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ensure accepted a non-positive dimension")
		}
	}()
	Ensure(nil, 0, 3)
}
