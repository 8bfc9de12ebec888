// Package video provides the raw-video substrate for the dcSR
// reproduction: planar YUV 4:2:0 and interleaved RGB frame types, BT.601
// color conversion, bilinear/bicubic resampling, frame differencing, and a
// deterministic procedural video generator that stands in for the paper's
// YouTube corpus (see DESIGN.md §1 for the substitution rationale).
package video

import "fmt"

// YUV is a planar YUV 4:2:0 frame (the format held in an H.264 decoder's
// decoded picture buffer). Chroma planes are half resolution in both
// dimensions; W and H must therefore be even.
type YUV struct {
	W, H    int
	Y, U, V []uint8
}

// NewYUV allocates a black 4:2:0 frame (Y=0 is black-ish; chroma neutral).
func NewYUV(w, h int) *YUV {
	if w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("video: YUV420 dimensions must be even, got %dx%d", w, h))
	}
	f := &YUV{W: w, H: h, Y: make([]uint8, w*h), U: make([]uint8, w*h/4), V: make([]uint8, w*h/4)}
	for i := range f.U {
		f.U[i] = 128
		f.V[i] = 128
	}
	return f
}

// Clone returns a deep copy of the frame.
func (f *YUV) Clone() *YUV {
	c := &YUV{W: f.W, H: f.H,
		Y: append([]uint8(nil), f.Y...),
		U: append([]uint8(nil), f.U...),
		V: append([]uint8(nil), f.V...)}
	return c
}

// ChromaW returns the chroma plane width.
func (f *YUV) ChromaW() int { return f.W / 2 }

// ChromaH returns the chroma plane height.
func (f *YUV) ChromaH() int { return f.H / 2 }

// RGB is an interleaved 8-bit RGB frame (the format micro SR models accept;
// the client converts DPB frames YUV→RGB before inference and back after,
// per paper Fig 6).
type RGB struct {
	W, H int
	Pix  []uint8 // len = W*H*3, row-major, R G B per pixel
}

// NewRGB allocates a black RGB frame.
func NewRGB(w, h int) *RGB {
	return &RGB{W: w, H: h, Pix: make([]uint8, w*h*3)}
}

// Clone returns a deep copy of the frame.
func (f *RGB) Clone() *RGB {
	return &RGB{W: f.W, H: f.H, Pix: append([]uint8(nil), f.Pix...)}
}

// At returns the pixel at (x, y).
func (f *RGB) At(x, y int) (r, g, b uint8) {
	i := (y*f.W + x) * 3
	return f.Pix[i], f.Pix[i+1], f.Pix[i+2]
}

// Set writes the pixel at (x, y).
func (f *RGB) Set(x, y int, r, g, b uint8) {
	i := (y*f.W + x) * 3
	f.Pix[i], f.Pix[i+1], f.Pix[i+2] = r, g, b
}

func clamp8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// ToRGB converts a YUV 4:2:0 frame to RGB using BT.601 full-range
// coefficients (the conversion the dcSR client performs before SR). It
// walks row slices, one chroma sample per pair of pixels, with one
// bounds check per pair and no per-pixel index arithmetic.
func (f *YUV) ToRGB() *RGB {
	out := NewRGB(f.W, f.H)
	w, cw := f.W, f.ChromaW()
	for y := 0; y < f.H; y++ {
		yrow := f.Y[y*w : (y+1)*w]
		urow := f.U[(y/2)*cw : (y/2+1)*cw]
		vrow := f.V[(y/2)*cw : (y/2+1)*cw][:len(urow)]
		dst := out.Pix[y*w*3 : (y+1)*w*3]
		for cx, u := range urow {
			U := int32(u) - 128
			V := int32(vrow[cx]) - 128
			// Fixed-point BT.601: R = Y + 1.402 V; G = Y − 0.344 U − 0.714 V; B = Y + 1.772 U
			rv := (1436 * V) >> 10
			gu, gv := (352*U)>>10, (731*V)>>10
			bu := (1815 * U) >> 10
			yy, d := (*[2]uint8)(yrow[2*cx:]), (*[6]uint8)(dst[6*cx:])
			Y0, Y1 := int32(yy[0]), int32(yy[1])
			d[0], d[1], d[2] = clamp8(Y0+rv), clamp8(Y0-gu-gv), clamp8(Y0+bu)
			d[3], d[4], d[5] = clamp8(Y1+rv), clamp8(Y1-gu-gv), clamp8(Y1+bu)
		}
	}
	return out
}

// ToYUV converts an RGB frame to planar YUV 4:2:0 (BT.601 full range),
// averaging each 2×2 block for the chroma planes. One pass over pairs
// of rows produces the block's four luma samples and its chroma sample.
func (f *RGB) ToYUV() *YUV {
	w, h := f.W, f.H
	if w%2 != 0 || h%2 != 0 {
		panic(fmt.Sprintf("video: ToYUV requires even dimensions, got %dx%d", w, h))
	}
	// Every sample is written below, so skip NewYUV's neutral fill.
	out := &YUV{W: w, H: h, Y: make([]uint8, w*h), U: make([]uint8, w*h/4), V: make([]uint8, w*h/4)}
	cw := w / 2
	for cy := 0; cy < h/2; cy++ {
		p0 := f.Pix[2*cy*w*3 : (2*cy+1)*w*3]
		p1 := f.Pix[(2*cy+1)*w*3 : (2*cy+2)*w*3]
		y0 := out.Y[2*cy*w : (2*cy+1)*w]
		y1 := out.Y[(2*cy+1)*w : (2*cy+2)*w]
		urow := out.U[cy*cw : (cy+1)*cw]
		vrow := out.V[cy*cw : (cy+1)*cw][:len(urow)]
		for cx := range urow {
			a, b := (*[6]uint8)(p0[6*cx:]), (*[6]uint8)(p1[6*cx:])
			r0, g0, b0 := int32(a[0]), int32(a[1]), int32(a[2])
			r1, g1, b1 := int32(a[3]), int32(a[4]), int32(a[5])
			r2, g2, b2 := int32(b[0]), int32(b[1]), int32(b[2])
			r3, g3, b3 := int32(b[3]), int32(b[4]), int32(b[5])
			// The luma weights sum to 1024, so Y needs no clamp.
			ya, yb := (*[2]uint8)(y0[2*cx:]), (*[2]uint8)(y1[2*cx:])
			ya[0] = uint8((306*r0 + 601*g0 + 117*b0) >> 10)
			ya[1] = uint8((306*r1 + 601*g1 + 117*b1) >> 10)
			yb[0] = uint8((306*r2 + 601*g2 + 117*b2) >> 10)
			yb[1] = uint8((306*r3 + 601*g3 + 117*b3) >> 10)
			ur, ug, ub := (r0+r1+r2+r3)/4, (g0+g1+g2+g3)/4, (b0+b1+b2+b3)/4
			urow[cx] = clamp8(((-173*ur - 339*ug + 512*ub) >> 10) + 128)
			vrow[cx] = clamp8(((512*ur - 429*ug - 83*ub) >> 10) + 128)
		}
	}
	return out
}

// MeanAbsDiff returns the mean absolute luma difference between two frames
// of identical dimensions. It is the signal the shot-based splitter
// thresholds to detect scene changes (paper §3.1.1).
func MeanAbsDiff(a, b *YUV) float64 {
	if a.W != b.W || a.H != b.H {
		panic("video: MeanAbsDiff dimension mismatch")
	}
	var sum int64
	for i, v := range a.Y {
		d := int64(v) - int64(b.Y[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(len(a.Y))
}
