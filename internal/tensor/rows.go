package tensor

// Row-at-a-time inference. A network whose layers are stride-1
// convolutions can run as a row pipeline: each layer keeps only the last
// few rows of its input, in a Ring (float32) or an Int8Map (int8), and
// computes output row y once input rows y−pad..y+pad are there. These
// row kernels (rowConv, mapConv) are the only inference convolutions of
// stride 1: the whole-image entry points, Conv2DInfer and
// Conv2DInferInt8, walk a K-slot ring through them too. So a pipeline's
// output bits are theirs, every element the same sum of the same
// operands in the same order, and its working set is O(width), not
// O(width × height).
//
// A ring holds slots of one row each, from the first pad column on, row
// y in slot (y + pad) mod slots. A convolution reads its K = 2·pad + 1
// window rows as consecutive slots (slot-major, one fixed stride), so a
// ring a window is read from is mirrored: slots [0, 2·pad) are also
// stored after the last slot, and Publish copies a row written there
// into its mirror. Mirroring copies two rows in three on a 3-row ring —
// one row's bytes, L2-resident, against the K·c multiply-adds per
// output element of the convolution that reads it — and keeps every
// kernel's addressing, including the int8 lanes' single window-row
// stride, exactly what it is over a whole image. Pad columns are +0
// (int8: 128, int8 zero) from Reset on: no writer touches them.

// Ring is a float32 row ring: c channels of w pixels a row, each row
// ringed by pad columns of +0, channel ch of a row Stride() floats after
// channel ch−1. The zero value is empty; Reset shapes it.
type Ring struct {
	buf              []float32
	c, w, pad, slots int
	mirrored         bool
}

// Reset shapes r to hold the last slots rows of a c-channel, w-pixel
// activation padded by pad columns, mirrored for window reads when
// window is set. A reshape clears the buffer (grown if too small); a
// Reset to the shape r already has keeps it, rows included.
func (r *Ring) Reset(c, w, pad, slots int, window bool) {
	if slots < 1 || (window && slots < 2*pad+1) {
		panic("tensor: Ring too shallow for its use")
	}
	if r.c == c && r.w == w && r.pad == pad && r.slots == slots && r.mirrored == window && r.buf != nil {
		return
	}
	r.c, r.w, r.pad, r.slots, r.mirrored = c, w, pad, slots, window
	n := (slots + r.mirrors()) * r.slotLen()
	if cap(r.buf) < n {
		r.buf = make([]float32, n)
	}
	r.buf = r.buf[:n]
	clear(r.buf)
}

// Bytes reports the memory the ring holds.
func (r *Ring) Bytes() int { return 4 * cap(r.buf) }

// Stride is the distance between two channels of a row, in floats.
func (r *Ring) Stride() int { return r.w + 2*r.pad }

func (r *Ring) slotLen() int { return r.c * r.Stride() }

func (r *Ring) mirrors() int {
	if r.mirrored {
		return 2 * r.pad
	}
	return 0
}

// Row returns row y's slot from its first pixel: channel ch's w pixels
// start at Row(y)[ch·Stride():]. y ≥ −pad.
func (r *Ring) Row(y int) []float32 {
	s, n := (y+r.pad)%r.slots, r.slotLen()
	return r.buf[s*n+r.pad : (s+1)*n]
}

// Publish makes row y, once written, readable through a window: it
// copies the slot into its mirror, if the slot has one.
func (r *Ring) Publish(y int) {
	if s := (y + r.pad) % r.slots; s < r.mirrors() {
		n := r.slotLen()
		copy(r.buf[(r.slots+s)*n:(r.slots+s+1)*n], r.buf[s*n:(s+1)*n])
	}
}

// Zero writes row y as all +0 (a row outside the image) and publishes
// it.
func (r *Ring) Zero(y int) {
	s, n := (y+r.pad)%r.slots, r.slotLen()
	clear(r.buf[s*n : (s+1)*n])
	r.Publish(y)
}

// window returns the window of output row oy of a stride-1 convolution:
// the slots of rows oy−pad..oy+pad, consecutive.
func (r *Ring) window(oy int) []float32 {
	if !r.mirrored {
		panic("tensor: window read of an unmirrored Ring")
	}
	return r.buf[(oy%r.slots)*r.slotLen():]
}

// ConvRows is a stride-1 float32 convolution prepared for one pass of
// row-at-a-time inference over Rings of one width: its weights packed
// once for the pass (NewConvRows), its rows computed one call at a time
// (Row), its pooled buffers returned by Release. A prepared ConvRows
// only reads its state, so one may serve several goroutines' rings at
// once.
type ConvRows struct {
	a     rowConv
	spec  ConvSpec
	width int
}

// NewConvRows prepares the convolution w (OutC, InC, K, K) with bias b
// (nil for none) and, with relu, a fused ReLU, over rows width pixels
// wide. It must be stride 1 with a pad of (K−1)/2.
func NewConvRows(w, b *Tensor, spec ConvSpec, width int, relu bool) ConvRows {
	if spec.Stride != 1 || spec.K != 2*spec.Pad+1 {
		panic("tensor: row convolutions are stride 1 with a (K−1)/2 pad")
	}
	if len(w.Data) != spec.OutC*spec.InC*spec.K*spec.K {
		panic("tensor: ConvRows weight length mismatch")
	}
	var bias []float32
	if b != nil {
		bias = b.Data[:spec.OutC]
	}
	return ConvRows{a: newRowConv(w.Data, bias, spec, width+2*spec.Pad, relu), spec: spec, width: width}
}

// Release returns the pooled buffers; c is unusable afterwards.
func (c *ConvRows) Release() { c.a.release() }

// Row computes output row oy of every channel from in's rows
// oy−pad..oy+pad, which must be published: channel oc's pixels at
// out[oc·stride:], each, with res non-nil (laid out like out), res +
// float32(scale·v) — read before the element is written, so out may be
// res, with the sum rounded step by step exactly as a separate
// scaled-add pass. The bits are Conv2DInfer's (with res, followed by
// that pass).
func (c *ConvRows) Row(in *Ring, oy int, out []float32, stride int, res []float32, scale float32) {
	if in.c != c.spec.InC || in.w != c.width || in.pad != c.spec.Pad {
		panic("tensor: ConvRows does not match its input ring")
	}
	c.a.row(in.window(oy), out, stride, c.width, res, scale)
}
