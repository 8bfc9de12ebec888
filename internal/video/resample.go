package video

import "math"

// ResizeRGB scales an RGB frame to (w, h) with bilinear interpolation.
// It is used to produce the low-resolution inputs SR models are trained on
// and to downsample I-frames for VAE feature extraction.
func ResizeRGB(src *RGB, w, h int) *RGB {
	if src.W == w && src.H == h {
		return src.Clone()
	}
	dst := NewRGB(w, h)
	xr := float64(src.W) / float64(w)
	yr := float64(src.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := (float64(y)+0.5)*yr - 0.5
		y0 := int(math.Floor(sy))
		fy := sy - float64(y0)
		y1 := y0 + 1
		if y0 < 0 {
			y0, y1, fy = 0, 0, 0
		}
		if y1 >= src.H {
			y1 = src.H - 1
			if y0 >= src.H {
				y0 = src.H - 1
			}
		}
		for x := 0; x < w; x++ {
			sx := (float64(x)+0.5)*xr - 0.5
			x0 := int(math.Floor(sx))
			fx := sx - float64(x0)
			x1 := x0 + 1
			if x0 < 0 {
				x0, x1, fx = 0, 0, 0
			}
			if x1 >= src.W {
				x1 = src.W - 1
				if x0 >= src.W {
					x0 = src.W - 1
				}
			}
			for c := 0; c < 3; c++ {
				p00 := float64(src.Pix[(y0*src.W+x0)*3+c])
				p01 := float64(src.Pix[(y0*src.W+x1)*3+c])
				p10 := float64(src.Pix[(y1*src.W+x0)*3+c])
				p11 := float64(src.Pix[(y1*src.W+x1)*3+c])
				top := p00 + (p01-p00)*fx
				bot := p10 + (p11-p10)*fx
				v := top + (bot-top)*fy
				dst.Pix[(y*w+x)*3+c] = clamp8(int32(math.Round(v)))
			}
		}
	}
	return dst
}

// BicubicResizeRGB scales an RGB frame to (w, h) with Catmull-Rom bicubic
// interpolation — the reference upscaler SR quality is compared against
// (the "LOW" series in paper Fig 9 is bicubic-upscaled low-quality video).
func BicubicResizeRGB(src *RGB, w, h int) *RGB {
	if src.W == w && src.H == h {
		return src.Clone()
	}
	dst := NewRGB(w, h)
	xr := float64(src.W) / float64(w)
	yr := float64(src.H) / float64(h)
	cubic := func(t float64) float64 {
		// Catmull-Rom kernel (a = -0.5).
		a := -0.5
		t = math.Abs(t)
		switch {
		case t <= 1:
			return (a+2)*t*t*t - (a+3)*t*t + 1
		case t < 2:
			return a*t*t*t - 5*a*t*t + 8*a*t - 4*a
		default:
			return 0
		}
	}
	clampi := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	for y := 0; y < h; y++ {
		sy := (float64(y)+0.5)*yr - 0.5
		y0 := int(math.Floor(sy))
		fy := sy - float64(y0)
		var wy [4]float64
		for i := 0; i < 4; i++ {
			wy[i] = cubic(float64(i-1) - fy)
		}
		for x := 0; x < w; x++ {
			sx := (float64(x)+0.5)*xr - 0.5
			x0 := int(math.Floor(sx))
			fx := sx - float64(x0)
			var wx [4]float64
			for i := 0; i < 4; i++ {
				wx[i] = cubic(float64(i-1) - fx)
			}
			for c := 0; c < 3; c++ {
				var acc, wsum float64
				for j := 0; j < 4; j++ {
					yy := clampi(y0+j-1, 0, src.H-1)
					for i := 0; i < 4; i++ {
						xx := clampi(x0+i-1, 0, src.W-1)
						wgt := wy[j] * wx[i]
						acc += wgt * float64(src.Pix[(yy*src.W+xx)*3+c])
						wsum += wgt
					}
				}
				dst.Pix[(y*w+x)*3+c] = clamp8(int32(math.Round(acc / wsum)))
			}
		}
	}
	return dst
}
