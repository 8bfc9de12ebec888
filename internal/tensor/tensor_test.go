package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 4 {
		t.Fatalf("bad dims %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	x := &Tensor{Shape: []int{2, 2}, Data: []float32{1, 2, 3, 4}}
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := &Tensor{Shape: []int{2, 3}, Data: []float32{1, 2, 3, 4, 5, 6}}
	y := x.Reshape(3, 2)
	y.Data[5] = 42
	if x.Data[5] != 42 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape size mismatch did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	x := &Tensor{Shape: []int{3}, Data: []float32{1, 2, 3}}
	y := &Tensor{Shape: []int{3}, Data: []float32{10, 20, -30}}
	x.AddInPlace(y)
	if x.Data[2] != -27 {
		t.Fatalf("AddInPlace got %v", x.Data)
	}
	x.ScaleInPlace(2)
	if x.Data[0] != 22 {
		t.Fatalf("ScaleInPlace got %v", x.Data)
	}
}

func TestMaxAbs(t *testing.T) {
	y := &Tensor{Shape: []int{3}, Data: []float32{4, -7, 6}}
	if got := y.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Randn(rand.New(rand.NewSource(5)), 1)
	b.Randn(rand.New(rand.NewSource(5)), 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Randn not deterministic for equal seeds")
		}
	}
}

// referenceConv is a naive direct convolution used as ground truth.
func referenceConv(x, w, b *Tensor, spec ConvSpec) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := spec.outSize(h, wd)
	out := New(n, spec.OutC, oh, ow)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < spec.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < spec.K; ky++ {
							for kx := 0; kx < spec.K; kx++ {
								iy := oy*spec.Stride + ky - spec.Pad
								ix := ox*spec.Stride + kx - spec.Pad
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								xv := x.Data[((ni*c+ic)*h+iy)*wd+ix]
								wv := w.Data[((oc*c+ic)*spec.K+ky)*spec.K+kx]
								s += float64(xv) * float64(wv)
							}
						}
					}
					if b != nil {
						s += float64(b.Data[oc])
					}
					out.Data[((ni*spec.OutC+oc)*oh+oy)*ow+ox] = float32(s)
				}
			}
		}
	}
	return out
}

func TestConvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []ConvSpec{
		{InC: 1, OutC: 1, K: 3, Stride: 1, Pad: 1},
		{InC: 3, OutC: 4, K: 3, Stride: 1, Pad: 1},
		{InC: 2, OutC: 3, K: 3, Stride: 2, Pad: 1},
		{InC: 2, OutC: 2, K: 1, Stride: 1, Pad: 0},
		{InC: 1, OutC: 2, K: 5, Stride: 1, Pad: 2},
	}
	for _, spec := range cases {
		x := New(2, spec.InC, 7, 6)
		x.Randn(rng, 1)
		w := New(spec.OutC, spec.InC, spec.K, spec.K)
		w.Randn(rng, 1)
		b := New(spec.OutC)
		b.Randn(rng, 1)
		got, _ := Conv2DForward(x, w, b, spec)
		want := referenceConv(x, w, b, spec)
		for i := range want.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
				t.Fatalf("spec %+v: out[%d] = %v, want %v", spec, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestIm2colCol2imAdjoint(t *testing.T) {
	// col2im must be the exact adjoint of im2col:
	// <im2col(x), y> == <x, col2im(y)> for all x, y.
	rng := rand.New(rand.NewSource(22))
	spec := ConvSpec{InC: 2, OutC: 1, K: 3, Stride: 2, Pad: 1}
	c, h, w := 2, 6, 5
	oh, ow := spec.outSize(h, w)
	rows := c * spec.K * spec.K
	for trial := 0; trial < 20; trial++ {
		x := make([]float32, c*h*w)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		y := make([]float32, rows*oh*ow)
		for i := range y {
			y[i] = float32(rng.NormFloat64())
		}
		col := make([]float32, rows*oh*ow)
		im2col(x, c, h, w, spec, col)
		var lhs float64
		for i := range col {
			lhs += float64(col[i]) * float64(y[i])
		}
		xadj := make([]float32, c*h*w)
		col2im(y, c, h, w, spec, xadj)
		var rhs float64
		for i := range x {
			rhs += float64(x[i]) * float64(xadj[i])
		}
		if math.Abs(lhs-rhs) > 1e-3*math.Max(1, math.Abs(lhs)) {
			t.Fatalf("trial %d: adjoint identity violated: %g vs %g", trial, lhs, rhs)
		}
	}
}

func TestMatMulProperties(t *testing.T) {
	// Property: (A·B)ᵀ-free identity checks via random small matrices
	// against a naive implementation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		got := make([]float32, m*n)
		MatMul(a, b, got, m, k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for kk := 0; kk < k; kk++ {
					s += float64(a[i*k+kk]) * float64(b[kk*n+j])
				}
				if math.Abs(s-float64(got[i*n+j])) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulATandBT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, k, n := 4, 3, 5
	a := make([]float32, m*k)
	bb := make([]float32, m*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range bb {
		bb[i] = float32(rng.NormFloat64())
	}
	// MatMulAT: out(k×n) = aᵀ·b.
	got := make([]float32, k*n)
	MatMulAT(a, bb, got, m, k, n)
	for r := 0; r < k; r++ {
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += float64(a[i*k+r]) * float64(bb[i*n+j])
			}
			if math.Abs(s-float64(got[r*n+j])) > 1e-4 {
				t.Fatalf("MatMulAT[%d][%d] = %v, want %v", r, j, got[r*n+j], s)
			}
		}
	}
	// MatMulBT: out(m×k2) = a2(m×n)·b2ᵀ(k2×n).
	k2 := 2
	b2 := make([]float32, k2*n)
	for i := range b2 {
		b2[i] = float32(rng.NormFloat64())
	}
	got2 := make([]float32, m*k2)
	MatMulBT(bb, b2, got2, m, n, k2)
	for i := 0; i < m; i++ {
		for r := 0; r < k2; r++ {
			var s float64
			for j := 0; j < n; j++ {
				s += float64(bb[i*n+j]) * float64(b2[r*n+j])
			}
			if math.Abs(s-float64(got2[i*k2+r])) > 1e-4 {
				t.Fatalf("MatMulBT[%d][%d] = %v, want %v", i, r, got2[i*k2+r], s)
			}
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		hits := make([]int32, n)
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}
