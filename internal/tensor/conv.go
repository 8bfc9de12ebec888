package tensor

import "runtime"

// ConvSpec describes a 2-D convolution: square kernel of size K with stride
// S and zero padding P, mapping InC input channels to OutC output channels.
type ConvSpec struct {
	InC, OutC int
	K         int
	Stride    int
	Pad       int
}

// OutSize returns the spatial output size for an input of size (h, w).
func (c ConvSpec) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*c.Pad-c.K)/c.Stride + 1
	ow = (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

// im2col expands input x (C,H,W) into a column matrix of shape
// (C*K*K, OH*OW) stored in col.
func im2col(x []float32, c, h, w int, spec ConvSpec, col []float32) {
	oh, _ := spec.OutSize(h, w)
	im2colRange(x, c, h, w, spec, 0, oh, col)
}

// im2colRange expands only output rows [oy0, oy1) of the convolution
// into a compact column matrix of shape (C*K*K, (oy1-oy0)*OW) stored in
// col. Banding the expansion this way keeps the scratch footprint of a
// full-frame convolution bounded by the band size instead of the frame
// size, which is what makes the alloc-free inference path viable at
// 1080p (a full-frame column matrix there is over a gigabyte).
func im2colRange(x []float32, c, h, w int, spec ConvSpec, oy0, oy1 int, col []float32) {
	_, ow := spec.OutSize(h, w)
	k, s, p := spec.K, spec.Stride, spec.Pad
	bandCols := (oy1 - oy0) * ow
	idx := 0
	for ch := 0; ch < c; ch++ {
		plane := x[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				// At stride 1 a column row is an input row shifted by
				// kx−p: output columns [x0, x1) copy straight across
				// and the rest is padding.
				x0, x1 := max(0, p-kx), min(ow, w+p-kx)
				for oy := oy0; oy < oy1; oy++ {
					iy := oy*s + ky - p
					rowBase := idx + (oy-oy0)*ow
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
				idx += bandCols
			}
		}
	}
}

// col2im is the adjoint of im2col: it accumulates the column matrix back
// into an image gradient of shape (C,H,W).
func col2im(col []float32, c, h, w int, spec ConvSpec, x []float32) {
	oh, ow := spec.OutSize(h, w)
	k, s, p := spec.K, spec.Stride, spec.Pad
	idx := 0
	for ch := 0; ch < c; ch++ {
		plane := x[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				// The stride-1 shortcut of im2colRange, transposed: the
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
		gemmRows(a, b, out, lo, hi, k, n, n, nil, false)
	})
}

// matmulTA computes out = aᵀ * b where a is (m×k) and b is (m×n):
// out[kk][j] = Σ_i a[i][kk] * b[i][j]. Parallelized over rows of out.
func matmulTA(a, b, out []float32, m, k, n int) {
	parallelFor(k, func(lo, hi int) {
		gemmTARows(a, b, out, lo, hi, m, k, n)
	})
}

// bandFloatBudget caps the im2col scratch for one inference band, in
// float32 elements (2^18 floats = 1 MiB). The resulting band height
// depends only on the convolution geometry — never on GOMAXPROCS or the
// worker schedule — so banded outputs are bit-identical across runs and
// across machines with different core counts.
const bandFloatBudget = 1 << 18

// Conv2DInfer computes a batched 2-D convolution for inference with the
// bias addition and (optionally) ReLU fused into the GEMM epilogue. The
// result is written into out, which is grown/reshaped as needed via
// Ensure and returned (pass nil to allocate on first use). Unlike
// Conv2DForward it materializes no full-frame column matrix: the input
// is expanded band-by-band into pooled scratch, so steady-state calls
// allocate nothing. Outputs are bitwise identical to Conv2DForward
// followed by separate bias and ReLU passes.
func Conv2DInfer(x, w, b *Tensor, spec ConvSpec, relu bool, out *Tensor) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != spec.InC {
		panic("tensor: Conv2DInfer channel mismatch")
	}
	oh, ow := spec.OutSize(h, wd)
	out = Ensure(out, n, spec.OutC, oh, ow)
	colRows := spec.InC * spec.K * spec.K
	band := bandFloatBudget / (colRows * ow)
	if band < 1 {
		band = 1
	}
	if band > oh {
		band = oh
	}
	numBands := (oh + band - 1) / band
	a := convInferArgs{
		x: x.Data, w: w.Data, out: out.Data,
		c: c, h: h, wd: wd, spec: spec, relu: relu,
		oh: oh, ow: ow, band: band, colRows: colRows, numBands: numBands,
	}
	if b != nil {
		a.bias = b.Data
	}
	if runtime.GOMAXPROCS(0) <= 1 {
		// Closure-free serial path: with one worker the call performs
		// zero heap allocations (the steady-state inference contract).
		for i := 0; i < n; i++ {
			convInferBands(a, i, 0, numBands)
		}
		return out
	}
	// The closures capture a branch-local copy so `a` itself never
	// escapes and the serial path above stays allocation-free.
	ap := a
	if n == 1 {
		parallelFor(numBands, func(lo, hi int) { convInferBands(ap, 0, lo, hi) })
	} else {
		parallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				convInferBands(ap, i, 0, ap.numBands)
			}
		})
	}
	return out
}

// convInferArgs carries the precomputed geometry of one Conv2DInfer call
// so band execution needs no closures (a by-value struct keeps the
// serial path allocation-free).
type convInferArgs struct {
	x, w, bias, out []float32
	c, h, wd        int
	spec            ConvSpec
	relu            bool
	oh, ow          int
	band, colRows   int
	numBands        int
}

// convInferBands runs output-row bands [lo, hi) of batch element i
// through im2colRange and the fused GEMM, using pooled scratch.
func convInferBands(a convInferArgs, i, lo, hi int) {
	planeIn := a.c * a.h * a.wd
	planeOut := a.spec.OutC * a.oh * a.ow
	xi := a.x[i*planeIn : (i+1)*planeIn]
	oi := a.out[i*planeOut : (i+1)*planeOut]
	colBuf := scratchF32.get(a.colRows * a.band * a.ow)
	col := *colBuf
	for bi := lo; bi < hi; bi++ {
		oy0 := bi * a.band
		oy1 := oy0 + a.band
		if oy1 > a.oh {
			oy1 = a.oh
		}
		bandCols := (oy1 - oy0) * a.ow
		im2colRange(xi, a.c, a.h, a.wd, a.spec, oy0, oy1, col[:a.colRows*bandCols])
		gemmRows(a.w, col, oi[oy0*a.ow:], 0, a.spec.OutC, a.colRows, bandCols, a.oh*a.ow, a.bias, a.relu)
	}
	scratchF32.put(colBuf)
}

// Conv2DForward computes a batched 2-D convolution for training.
//
//	x: (N, InC, H, W),  w: (OutC, InC, K, K),  b: (OutC) or nil
//
// It returns the output (N, OutC, OH, OW) and the im2col buffers for each
// batch element, which the backward pass reuses to avoid recomputation.
// The bias is fused into the GEMM epilogue; batch elements run in
// parallel (single-element batches parallelize over output channels
// instead). Use Conv2DInfer on the inference path — it skips the column
// buffers entirely.
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
	oh, ow := spec.OutSize(h, wd)
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
			gemmRows(w.Data, cols[0], out.Data, lo, hi, colRows, colCols, colCols, bias, false)
		})
		return cols
	}
	parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			im2col(x.Data[i*c*h*wd:(i+1)*c*h*wd], c, h, wd, spec, cols[i])
			gemmRows(w.Data, cols[i], out.Data[i*spec.OutC*colCols:], 0, spec.OutC, colRows, colCols, colCols, bias, false)
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
	oh, ow := spec.OutSize(h, wd)
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
		gemmRows(b, at, ot, lo, hi, n, m, m, nil, false)
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
