package tensor

import "sync"

// ConvSpec describes a 2-D convolution: square kernel of size K with stride
// S and zero padding P, mapping InC input channels to OutC output channels.
type ConvSpec struct {
	InC, OutC int
	K         int
	Stride    int
	Pad       int
}

// outSize returns the spatial output size for an input of size (h, w).
func (c ConvSpec) outSize(h, w int) (oh, ow int) {
	oh = (h+2*c.Pad-c.K)/c.Stride + 1
	ow = (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

// im2col expands input x (C,H,W) into a column matrix of shape
// (C*K*K, OH*OW) stored in col.
func im2col(x []float32, c, h, w int, spec ConvSpec, col []float32) {
	oh, ow := spec.outSize(h, w)
	k, s, p := spec.K, spec.Stride, spec.Pad
	idx := 0
	for ch := 0; ch < c; ch++ {
		plane := x[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				// At stride 1 a column row is an input row shifted by
				// kx−p: output columns [x0, x1) copy straight across
				// and the rest is padding.
				x0, x1 := max(0, p-kx), min(ow, w+p-kx)
				for oy := 0; oy < oh; oy++ {
					iy := oy*s + ky - p
					rowBase := idx + oy*ow
					if s == 1 && iy >= 0 && iy < h && x0 < x1 {
						dst := col[rowBase : rowBase+ow]
						for j := 0; j < x0; j++ {
							dst[j] = 0
						}
						copy(dst[x0:x1], plane[iy*w+x0+kx-p:])
						for j := x1; j < ow; j++ {
							dst[j] = 0
						}
						continue
					}
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							col[rowBase+ox] = 0
						}
						continue
					}
					src := plane[iy*w : (iy+1)*w]
					for ox := 0; ox < ow; ox++ {
						ix := ox*s + kx - p
						if ix < 0 || ix >= w {
							col[rowBase+ox] = 0
						} else {
							col[rowBase+ox] = src[ix]
						}
					}
				}
				idx += oh * ow
			}
		}
	}
}

// col2im is the adjoint of im2col: it accumulates the column matrix back
// into an image gradient of shape (C,H,W).
func col2im(col []float32, c, h, w int, spec ConvSpec, x []float32) {
	oh, ow := spec.outSize(h, w)
	k, s, p := spec.K, spec.Stride, spec.Pad
	idx := 0
	for ch := 0; ch < c; ch++ {
		plane := x[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				// The stride-1 shortcut of im2col, transposed: the
				// same elements in the same order, without per-element
				// index arithmetic.
				x0, x1 := max(0, p-kx), min(ow, w+p-kx)
				for oy := 0; oy < oh; oy++ {
					iy := oy*s + ky - p
					if iy < 0 || iy >= h {
						continue
					}
					rowBase := idx + oy*ow
					if s == 1 && x0 < x1 {
						src := col[rowBase+x0 : rowBase+x1]
						dst := plane[iy*w+x0+kx-p:][:len(src)]
						for j, v := range src {
							dst[j] += v
						}
						continue
					}
					dst := plane[iy*w : (iy+1)*w]
					for ox := 0; ox < ow; ox++ {
						ix := ox*s + kx - p
						if ix >= 0 && ix < w {
							dst[ix] += col[rowBase+ox]
						}
					}
				}
				idx += oh * ow
			}
		}
	}
}

// matmul computes out = a(m×k) * b(k×n), parallelized over rows of a.
func matmul(a, b, out []float32, m, k, n int) {
	parallelFor(m, func(lo, hi int) {
		gemmRows(a, b, out, lo, hi, k, n, n, epilogue{})
	})
}

// matmulTA computes out = aᵀ * b where a is (m×k) and b is (m×n):
// out[kk][j] = Σ_i a[i][kk] * b[i][j]. Parallelized over rows of out.
func matmulTA(a, b, out []float32, m, k, n int) {
	parallelFor(k, func(lo, hi int) {
		gemmTARows(a, b, out, lo, hi, m, k, n)
	})
}

var ringPool = sync.Pool{New: func() any { return new(Ring) }}

// Conv2DInfer computes a batched 2-D convolution for inference with the
// bias addition and (optionally) ReLU fused into the kernel epilogue.
// The result is written into out, which is grown/reshaped as needed via
// Ensure and returned (pass nil to allocate on first use); out must not
// be x. It runs the row kernel (ConvRows) serially, and so takes what
// NewConvRows takes — stride 1 with a (K−1)/2 pad — and panics
// otherwise: each image's rows pushed through a pooled K-slot Ring,
// each output row computed once its window is published. Steady-state
// calls allocate nothing, and outputs are bitwise identical to
// Conv2DForward followed by separate bias and ReLU passes.
func Conv2DInfer(x, w, b *Tensor, spec ConvSpec, relu bool, out *Tensor) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != spec.InC {
		panic("tensor: Conv2DInfer channel mismatch")
	}
	k := NewConvRows(w, b, spec, wd, relu)
	out = Ensure(out, n, spec.OutC, h, wd)
	r := ringPool.Get().(*Ring)
	r.Reset(c, wd, spec.Pad, spec.K, true)
	plane := h * wd
	for i := 0; i < n; i++ {
		xi, oi := x.Data[i*c*plane:], out.Data[i*spec.OutC*plane:]
		for iy := -spec.Pad; iy < h+spec.Pad; iy++ {
			if iy < 0 || iy >= h {
				r.Zero(iy)
			} else {
				row := r.Row(iy)
				for ch := 0; ch < c; ch++ {
					copy(row[ch*r.Stride():][:wd], xi[ch*plane+iy*wd:])
				}
				r.Publish(iy)
			}
			if oy := iy - spec.Pad; oy >= 0 {
				k.Row(r, oy, oi[oy*wd:], plane, nil, 0)
			}
		}
	}
	ringPool.Put(r)
	k.Release()
	return out
}

// rowConv is a stride-1 convolution prepared for the float32 row
// kernels, as an implicit GEMM: one output row of every channel is
// computed from a window of K input rows laid out slot-major — each
// window row one slot of c channels pw = width + 2·pad floats apart,
// ringed by pad columns of +0, the K slots consecutive — and
// column-matrix row r = (ci, ky, kx) of the output row is that window
// from off[r] = ky·c·pw + ci·pw + kx on. Every output element therefore
// sums from +0 over ascending (ci, ky, kx), each product rounded before
// the add, reading the values im2col would have written — the bits of
// im2col + GEMM, NaN, ±Inf, ±0 and denormals included — whichever
// ring slots hold the rows.
//
// The rows run on one of three kernels behind the same table: the
// AVX-512 tile (convRowF32AVX512, eight channels by 32 pixels, its
// weights packed per pass into [kk][8] panels — never cached, since
// training and weight deltas rewrite weights in place), the AVX2 GEMM
// tile (gemmTiles) and the portable loop (gemmRowsGo), the oracle of
// both. The struct holds no closures, so the serial path allocates
// nothing.
type rowConv struct {
	w        []float32
	ep       epilogue // bias and ReLU; a row call adds its residual
	outC, kk int      // output channels, reduction length c·k·k
	off      []int
	maxOff   int

	avx512 bool
	blocks int       // AVX-512: blocks of eight output channels
	wp, bp []float32 // AVX-512: weight panels [blocks][kk][8], biases [blocks][8]

	offBuf *[]int
	wpBuf  *[]float32
}

func newRowConv(w, bias []float32, spec ConvSpec, pw int, relu bool) rowConv {
	c, k := spec.InC, spec.K
	a := rowConv{w: w, ep: epilogue{bias: bias, relu: relu}, outC: spec.OutC, kk: c * k * k}
	a.offBuf = scratchInt.get(a.kk)
	a.off = *a.offBuf
	r := 0
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				a.off[r] = ky*c*pw + ci*pw + kx
				r++
			}
		}
	}
	if a.kk > 0 {
		a.maxOff = a.off[a.kk-1]
	}
	a.avx512 = useAVX512 && a.kk > 0
	if a.avx512 {
		a.blocks = (a.outC + 7) / 8
		a.wpBuf = scratchPanel.get(a.blocks * (a.kk + 1) * 8)
		wp := *a.wpBuf
		clear(wp)
		a.wp, a.bp = wp[:a.blocks*a.kk*8], wp[a.blocks*a.kk*8:]
		for oc := 0; oc < a.outC; oc++ {
			panel := a.wp[oc/8*a.kk*8+oc%8:]
			for r, v := range w[oc*a.kk : (oc+1)*a.kk] {
				panel[r*8] = v
			}
		}
		if bias != nil {
			copy(a.bp, bias)
		}
	}
	return a
}

func (a *rowConv) release() {
	scratchInt.put(a.offBuf)
	if a.wpBuf != nil {
		scratchPanel.put(a.wpBuf)
	}
	*a = rowConv{}
}

// row computes one output row of every channel from the window b:
// channel oc's cols pixels at out[oc·planeStride:], each, with res
// non-nil (laid out like out), res + float32(scale·v) — read before the
// element is written, so out may be res.
func (a *rowConv) row(b, out []float32, planeStride, cols int, res []float32, scale float32) {
	ep := a.ep
	ep.res, ep.scale = res, scale
	if !a.avx512 {
		gemmOffRows(a.w, b, a.off, out, 0, a.outC, a.kk, cols, planeStride, ep)
		return
	}
	// The assembly trusts these extents.
	last := (a.outC-1)*planeStride + cols - 1
	_ = b[a.maxOff+cols-1]
	_ = out[last]
	r := &out[0]
	if res != nil {
		_ = res[last]
		r = &res[0]
	}
	convRowF32AVX512(&b[0], &a.off[0], a.kk, &a.wp[0], &a.bp[0], a.blocks, a.outC-8*(a.blocks-1),
		&out[0], planeStride, cols, r, scale, ep.bits())
}

// Conv2DForward computes a batched 2-D convolution for training.
//
//	x: (N, InC, H, W),  w: (OutC, InC, K, K),  b: (OutC) or nil
//
// It returns the output (N, OutC, OH, OW) and the im2col buffers for each
// batch element, which the backward pass reuses to avoid recomputation.
// The bias is fused into the GEMM epilogue; batch elements run in
// parallel (single-element batches parallelize over output channels
// instead). A stride-1 inference pass runs the row kernels instead
// (ConvRows, Conv2DInfer), which skip the column buffers entirely; any
// other geometry (the VAE encoder's stride 2) has this path alone.
func Conv2DForward(x, w, b *Tensor, spec ConvSpec) (out *Tensor, cols [][]float32) {
	out = new(Tensor)
	return out, Conv2DForwardInto(out, new(Tensor), nil, x, w, b, spec)
}

// Conv2DForwardInto is Conv2DForward into caller-owned storage, so a
// training loop that hands back the same tensors every step allocates
// nothing here: out receives the output and col the column matrices of
// the whole batch (both shaped via Ensure and fully overwritten); cols
// is a reusable header slice (nil allocates) returned holding col's
// per-batch-element views, valid while col is.
func Conv2DForwardInto(out, col *Tensor, cols [][]float32, x, w, b *Tensor, spec ConvSpec) [][]float32 {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != spec.InC {
		panic("tensor: Conv2DForward channel mismatch")
	}
	oh, ow := spec.outSize(h, wd)
	Ensure(out, n, spec.OutC, oh, ow)
	colRows := spec.InC * spec.K * spec.K
	colCols := oh * ow
	Ensure(col, n, colRows, colCols)
	cols = cols[:0]
	for i := 0; i < n; i++ {
		cols = append(cols, col.Data[i*colRows*colCols:(i+1)*colRows*colCols])
	}
	var bias []float32
	if b != nil {
		bias = b.Data
	}
	if n == 1 {
		im2col(x.Data, c, h, wd, spec, cols[0])
		parallelFor(spec.OutC, func(lo, hi int) {
			gemmRows(w.Data, cols[0], out.Data, lo, hi, colRows, colCols, colCols, epilogue{bias: bias})
		})
		return cols
	}
	parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			im2col(x.Data[i*c*h*wd:(i+1)*c*h*wd], c, h, wd, spec, cols[i])
			gemmRows(w.Data, cols[i], out.Data[i*spec.OutC*colCols:], 0, spec.OutC, colRows, colCols, colCols, epilogue{bias: bias})
		}
	})
	return cols
}

// Conv2DBackward computes gradients for a convolution given the upstream
// gradient gy (N, OutC, OH, OW), the saved im2col buffers, the input shape,
// and the weights. It returns gradX and accumulates into gw and gb (which
// must be pre-allocated to the weight/bias shapes). The per-batch column
// gradient and weight-gradient staging buffers come from the scratch
// arena, so repeated training steps do not re-allocate them.
func Conv2DBackward(gy *Tensor, cols [][]float32, xShape []int, w, gw, gb *Tensor, spec ConvSpec) (gx *Tensor) {
	gx = new(Tensor)
	Conv2DBackwardInto(gx, gy, cols, xShape, w, gw, gb, spec)
	return gx
}

// Conv2DBackwardInto is Conv2DBackward writing gradX into the
// caller-owned gx (shaped via Ensure). col2im accumulates into it, so
// it is cleared here first: a recycled gx carries the previous step's
// gradient.
func Conv2DBackwardInto(gx, gy *Tensor, cols [][]float32, xShape []int, w, gw, gb *Tensor, spec ConvSpec) {
	n, c, h, wd := xShape[0], xShape[1], xShape[2], xShape[3]
	oh, ow := spec.outSize(h, wd)
	colRows := spec.InC * spec.K * spec.K
	colCols := oh * ow
	Ensure(gx, xShape...)
	gx.Zero()
	gcolBuf := scratchF32.get(colRows * colCols)
	gwBuf := scratchF32.get(len(gw.Data))
	gcol, gwTmp := *gcolBuf, *gwBuf
	for i := 0; i < n; i++ {
		gyi := gy.Data[i*spec.OutC*colCols : (i+1)*spec.OutC*colCols]
		// gw[oc][r] += Σ_j gy[oc][j] * col[r][j]
		matmulBT(gyi, cols[i], gwTmp, spec.OutC, colCols, colRows)
		for j, v := range gwTmp {
			gw.Data[j] += v
		}
		if gb != nil {
			for oc := 0; oc < spec.OutC; oc++ {
				var s float32
				plane := gyi[oc*colCols : (oc+1)*colCols]
				for _, v := range plane {
					s += v
				}
				gb.Data[oc] += s
			}
		}
		// gcol (colRows × colCols) = Wᵀ (colRows × OutC) * gy_i
		matmulTA(w.Data, gyi, gcol, spec.OutC, colRows, colCols)
		col2im(gcol, c, h, wd, spec, gx.Data[i*c*h*wd:(i+1)*c*h*wd])
	}
	scratchF32.put(gwBuf)
	scratchF32.put(gcolBuf)
}

// matmulBT computes out(m×k) = a(m×n) * bᵀ where b is (k×n):
// out[i][r] = Σ_j a[i][j] * b[r][j], parallelized over rows of out.
func matmulBT(a, b, out []float32, m, n, k int) {
	if useAVX2 && m >= btMinRows && n > 0 && k > 0 {
		matmulBTTiles(a, b, out, m, n, k)
		return
	}
	parallelFor(m, func(lo, hi int) {
		gemmBTRows(a, b, out, lo, hi, n, k)
	})
}

// btMinRows is the fewest rows of a for which matmulBT takes the tile:
// its lanes run across those rows, and below half a vector the portable
// dot-product loop is as fast.
const btMinRows = 8

// matmulBTTiles is matmulBT on the AVX2 tile. Both operands are
// contiguous along the reduction axis, and lanes placed along it would
// need a horizontal sum that reorders each element's additions. So the
// smaller operand is transposed instead: outᵀ(k×m) = b(k×n) * aᵀ(n×m)
// is gemmRows' shape, with lanes across the m rows of a and every
// element still summed over ascending j from zero. For the conv weight
// gradient (m = OutC) the two transposes are under 1 % of the product.
func matmulBTTiles(a, b, out []float32, m, n, k int) {
	atBuf, otBuf := scratchF32.get(n*m), scratchF32.get(k*m)
	at, ot := *atBuf, *otBuf
	transpose(a, at, m, n)
	parallelFor(k, func(lo, hi int) {
		gemmRows(b, at, ot, lo, hi, n, m, m, epilogue{})
	})
	transpose(ot, out, k, m)
	scratchF32.put(otBuf)
	scratchF32.put(atBuf)
}

// transpose writes the (rows×cols) matrix src into dst as (cols×rows).
func transpose(src, dst []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		di := r
		for _, v := range src[r*cols : (r+1)*cols] {
			dst[di] = v
			di += rows
		}
	}
}
