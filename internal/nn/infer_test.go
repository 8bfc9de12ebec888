package nn

import (
	"math/rand"
	"testing"

	"dcsr/internal/tensor"
)

// TestSequentialForwardInferenceMatchesForward checks every layer kind's
// inference path against its training Forward on one mixed stack, twice
// in a row so the reused buffers are exercised.
func TestSequentialForwardInferenceMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := &Sequential{Layers: []Layer{
		NewConv2D(2, 8, 3, 1, 1).InitHe(rng),
		&ReLU{},
		NewResBlock(8, 0.5).InitHe(rng),
		NewConv2D(8, 4, 3, 1, 1).InitHe(rng),
		&PixelShuffle{R: 2},
	}}
	x := tensor.New(2, 2, 6, 5)
	x.Randn(rng, 1)
	want := seq.Forward(nil, x.Clone())
	for pass := 0; pass < 2; pass++ {
		got := seq.ForwardInference(x.Clone())
		if len(got.Data) != len(want.Data) {
			t.Fatalf("shape mismatch: %v vs %v", got.Shape, want.Shape)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("pass %d: element %d differs: %v vs %v", pass, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestDenseForwardInferenceMatchesForward covers the Dense fast path
// (the VAE feature heads).
func TestDenseForwardInferenceMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense(12, 7).InitXavier(rng)
	x := tensor.New(3, 12)
	x.Randn(rng, 1)
	want := d.Forward(nil, x)
	for pass := 0; pass < 2; pass++ {
		got := d.ForwardInference(x, nil)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("pass %d: element %d differs: %v vs %v", pass, i, got.Data[i], want.Data[i])
			}
		}
	}
}
