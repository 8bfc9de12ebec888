// Package tensor provides the minimal dense float32 tensor machinery used by
// the neural-network stack in this repository: NCHW-layout tensors,
// elementwise arithmetic, im2col-based 2-D convolution with full backward
// passes, and a deterministic Gaussian initializer.
//
// The package is deliberately small: it implements exactly what the EDSR and
// VAE models in internal/edsr and internal/vae need, with no reflection, no
// interface indirection in hot loops, and no allocation inside the per-pixel
// kernels. All heavy operations (matmul, im2col) are parallelized across
// runtime.NumCPU workers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense float32 array with an explicit shape. The layout is
// row-major; for 4-D tensors the convention throughout this repository is
// NCHW (batch, channel, height, width). The zero value is an empty tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Ensure returns a tensor of the given shape, reusing t's backing
// storage when its capacity suffices and growing it otherwise. A nil t
// allocates fresh. The returned tensor's contents are unspecified —
// callers must fully overwrite it — which is exactly the contract the
// inference fast path needs to recycle per-layer output buffers without
// a clearing pass.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			// The message deliberately omits the shape: formatting it
			// would make the variadic slice escape and cost the hot
			// path one heap allocation per call.
			panic("tensor: non-positive dimension in Ensure shape")
		}
		n *= s
	}
	if t == nil {
		t = &Tensor{}
	}
	t.Shape = append(t.Shape[:0], shape...)
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	} else {
		t.Data = t.Data[:n]
	}
	return t
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Randn fills t with Gaussian noise of the given standard deviation using
// the supplied PRNG, so all model initialization is reproducible.
func (t *Tensor) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// AddScaled writes dst[i] = res[i] + float32(s·v[i]) for every i of v —
// the residual epilogue's expression, the product rounded before the
// add; dst may be res or v. The operands are resliced to one length so
// the loop checks no bounds.
func AddScaled(dst, res, v []float32, s float32) {
	dst, res = dst[:len(v)], res[:len(v)]
	for i, x := range v {
		dst[i] = res[i] + float32(s*x)
	}
}

// AddInPlace adds o elementwise into t. Shapes must have equal length.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// MaxAbs returns the largest absolute element value, or 0 for empty tensors.
func (t *Tensor) MaxAbs() float32 { return MaxAbs(t.Data) }

// MaxAbs returns the largest absolute value in xs (0 when empty). NaNs
// are skipped, so the max-abs of a slice split into parts is the max of
// the parts', in any order.
func MaxAbs(xs []float32) float32 {
	var m float32
	for _, v := range xs {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}
