package nn

import (
	"math/rand"
	"testing"

	"dcsr/internal/tensor"
)

// convRows runs c over x (N, InC, H, W) as edsr's row pipeline runs a
// convolution: each image's rows pushed through a K-slot tensor.Ring
// (for the int8 kernels quantized on into a tensor.Int8Map with
// InputMultiplier), each output row computed by ConvRows (Int8ConvRows)
// once its window is published, relu fused and, with res non-nil, res +
// scale·v added in the epilogue. It writes into out (nil allocates; out
// may be res), and first Observes x's max-abs.
func convRows(c *Conv2D, x, res *tensor.Tensor, scale float32, out *tensor.Tensor, relu, int8Path bool) *tensor.Tensor {
	s, n, h, w := c.Spec, x.Shape[0], x.Shape[2], x.Shape[3]
	c.Observe(x.MaxAbs())
	out = tensor.Ensure(out, n, s.OutC, h, w)
	ring, m := new(tensor.Ring), new(tensor.Int8Map)
	ring.Reset(s.InC, w, s.Pad, s.K, true)
	m.Reset(s.InC, w, s.Pad, s.K)
	f, q := c.ConvRows(w, relu), tensor.Int8ConvRows{}
	defer f.Release()
	if int8Path {
		q = c.Int8ConvRows(w, relu)
	}
	defer q.Release()
	for i, plane := 0, h*w; i < n; i++ {
		xi, oi := x.Data[i*s.InC*plane:], out.Data[i*s.OutC*plane:]
		for y := -s.Pad; y < h+s.Pad; y++ {
			if row := ring.Row(y); y >= 0 && y < h {
				for ch := 0; ch < s.InC; ch++ {
					copy(row[ch*ring.Stride():][:w], xi[ch*plane+y*w:])
				}
				ring.Publish(y)
				if int8Path {
					m.QuantizeRow(y, row, ring.Stride(), c.InputMultiplier())
				}
			} else {
				ring.Zero(y)
				m.ZeroRow(y)
			}
			oy, r := y-s.Pad, []float32(nil)
			if res != nil && oy >= 0 {
				r = res.Data[i*s.OutC*plane+oy*w:]
			}
			switch {
			case oy < 0:
			case int8Path:
				q.Row(m, oy, oi[oy*w:], plane, r, scale)
			default:
				f.Row(ring, oy, oi[oy*w:], plane, r, scale)
			}
		}
	}
	return out
}

// inferSeq runs seq's layers in order on convRows: each convolution
// and residual block on its int8 kernels when int8Path holds and it is
// quantized, on the float32 ones otherwise; a residual block as edsr's
// pipeline runs one, its ReLU fused into the first convolution and its
// scaled residual add into the second's epilogue.
func inferSeq(seq *Sequential, x *tensor.Tensor, int8Path bool) *tensor.Tensor {
	for _, l := range seq.Layers {
		switch l := l.(type) {
		case *Conv2D:
			x = convRows(l, x, nil, 0, nil, false, int8Path && l.Int8Ready())
		case *ResBlock:
			q := int8Path && l.Conv1.Int8Ready() && l.Conv2.Int8Ready()
			h := convRows(l.Conv1, x, nil, 0, nil, true, q)
			x = convRows(l.Conv2, h, x, l.ResScale, nil, false, q)
		case *ReLU: // in place; the models fuse theirs into the convolution
			for i, v := range x.Data {
				if v < 0 {
					x.Data[i] = 0
				}
			}
		case *PixelShuffle:
			x = l.Forward(nil, x)
		default:
			panic("nn: inferSeq has no row path for this layer")
		}
	}
	return x
}

// TestSequentialForwardInferenceMatchesForward checks every layer kind's
// row inference path against its training Forward on one mixed stack.
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
	got := inferSeq(seq, x.Clone(), false)
	if len(got.Data) != len(want.Data) {
		t.Fatalf("shape mismatch: %v vs %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d differs: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}
