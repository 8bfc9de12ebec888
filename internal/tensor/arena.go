package tensor

import "sync"

// The scratch arena recycles the large transient buffers the conv
// kernels need (column matrices, col gradients, per-batch weight-gradient
// accumulators, packed weights) through a sync.Pool, so a steady-state inference or
// training loop stops hitting the allocator for multi-megabyte slices
// every layer call. Buffers are handed out uninitialized: every kernel
// that takes one either fully overwrites it or zero-initializes its own
// output rows, so stale contents can never leak into results.

// scratch is the arena for one element type: one pool per type, so a
// buffer is never reallocated because a caller of another type used it
// last.
type scratch[T any] struct{ pool sync.Pool }

var (
	scratchF32 scratch[float32]
	// scratchPanel holds the AVX-512 float32 tile's weight panels apart
	// from the other float32 scratch: sharing one pool, a pass's panels
	// and the row buffers or column matrices taken between them would
	// swap buffers, and one could get a smaller buffer than it needs and
	// reallocate it.
	scratchPanel scratch[float32]
	scratchI8    scratch[int8]
	scratchU8    scratch[byte]
	scratchU64   scratch[uint64]
	scratchInt   scratch[int]
)

// get returns a scratch buffer of length n from the arena. The contents
// are unspecified; callers must fully write the buffer before reading
// it. Return it with put when done.
func (s *scratch[T]) get(n int) *[]T {
	p, _ := s.pool.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

// put returns a buffer obtained from get to the arena. The caller must
// not retain any slice of it afterwards.
func (s *scratch[T]) put(p *[]T) { s.pool.Put(p) }

// Arena recycles the tensors of a pass that repeats — a training step's
// activations, column matrices and gradients. The k-th Next after a
// Reset returns the tensor the k-th Next returned after the previous
// Reset, so a step that asks for the same tensors in the same order as
// the step before allocates nothing (a shape that changes, such as a
// short last batch, regrows only that tensor). The zero value is ready
// to use; an Arena must not be shared between goroutines. A nil *Arena
// is valid and recycles nothing: every Next is a fresh tensor.
type Arena struct {
	ts   []*Tensor
	next int
}

// Reset takes back every tensor handed out since the last Reset; the
// caller must hold none of them across it.
func (a *Arena) Reset() { a.next = 0 }

// Next returns the pass's next tensor, for the caller to shape with
// Ensure. Like any Ensure'd tensor its contents are unspecified — it
// holds whatever the previous pass left there — so a caller that
// accumulates into it must clear it first.
func (a *Arena) Next() *Tensor {
	if a == nil {
		return new(Tensor)
	}
	if a.next == len(a.ts) {
		a.ts = append(a.ts, new(Tensor))
	}
	a.next++
	return a.ts[a.next-1]
}
