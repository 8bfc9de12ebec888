// Package quality implements the image/video quality metrics the paper
// evaluates with: PSNR and SSIM (Wang et al. 2004), plus small aggregation
// helpers for per-video statistics.
package quality

import (
	"math"

	"dcsr/internal/video"
)

// MSEToPSNR converts a mean squared error on the 0–255 pixel scale to
// peak signal-to-noise ratio in dB: 10·log10(255²/MSE). A zero (or
// negative) MSE yields +Inf — a perfect reconstruction. This is the one
// PSNR formula in the repo; every other conversion delegates here.
func MSEToPSNR(mse float64) float64 {
	if mse <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// PSNR returns the peak signal-to-noise ratio in dB between two RGB frames
// of identical dimensions, computed over all three channels. Identical
// frames yield +Inf.
func PSNR(a, b *video.RGB) float64 {
	return MSEToPSNR(MSE(a, b))
}

// MSE returns the mean squared error between two RGB frames of identical
// dimensions in 8-bit pixel units, the scale MSEToPSNR expects. Each
// product is rounded before it is summed, here and in every metric
// below, so the publisher's quality gates and the reported PSNR and SSIM
// do not depend on whether a backend fuses multiply-adds.
func MSE(a, b *video.RGB) float64 {
	if a.W != b.W || a.H != b.H {
		panic("quality: MSE dimension mismatch")
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += float64(d * d)
	}
	return sum / float64(len(a.Pix))
}

// PSNRYUV returns luma-plane PSNR between two YUV frames.
func PSNRYUV(a, b *video.YUV) float64 {
	if a.W != b.W || a.H != b.H {
		panic("quality: PSNRYUV dimension mismatch")
	}
	var mse float64
	for i := range a.Y {
		d := float64(a.Y[i]) - float64(b.Y[i])
		mse += float64(d * d)
	}
	mse /= float64(len(a.Y))
	return MSEToPSNR(mse)
}

// SSIM constants per Wang et al. 2004 with L = 255.
const (
	ssimC1 = (0.01 * 255) * (0.01 * 255)
	ssimC2 = (0.03 * 255) * (0.03 * 255)
)

// SSIM returns the mean structural similarity index between two RGB frames,
// computed on the luma approximation over sliding 8×8 windows with stride 4
// (a standard fast variant; the paper's conclusions depend only on relative
// SSIM, e.g. "no more than 0.05 SSIM loss").
func SSIM(a, b *video.RGB) float64 {
	if a.W != b.W || a.H != b.H {
		panic("quality: SSIM dimension mismatch")
	}
	la := lumaPlane(a)
	lb := lumaPlane(b)
	return ssimPlanes(la, lb, a.W, a.H)
}

// SSIMYUV returns the mean SSIM over the luma planes of two YUV frames.
func SSIMYUV(a, b *video.YUV) float64 {
	if a.W != b.W || a.H != b.H {
		panic("quality: SSIMYUV dimension mismatch")
	}
	fa := make([]float64, len(a.Y))
	fb := make([]float64, len(b.Y))
	for i := range a.Y {
		fa[i] = float64(a.Y[i])
		fb[i] = float64(b.Y[i])
	}
	return ssimPlanes(fa, fb, a.W, a.H)
}

func lumaPlane(f *video.RGB) []float64 {
	out := make([]float64, f.W*f.H)
	for i := 0; i < f.W*f.H; i++ {
		r := float64(f.Pix[i*3])
		g := float64(f.Pix[i*3+1])
		b := float64(f.Pix[i*3+2])
		out[i] = float64(0.299*r) + float64(0.587*g) + float64(0.114*b)
	}
	return out
}

func ssimPlanes(a, b []float64, w, h int) float64 {
	const win = 8
	const stride = 4
	if w < win || h < win {
		// Degenerate frames: single global window.
		return ssimWindow(a, b, w, 0, 0, w, h)
	}
	var sum float64
	var n int
	for y := 0; y+win <= h; y += stride {
		for x := 0; x+win <= w; x += stride {
			sum += ssimWindow(a, b, w, x, y, win, win)
			n++
		}
	}
	return sum / float64(n)
}

func ssimWindow(a, b []float64, w, x0, y0, ww, wh int) float64 {
	var ma, mb float64
	n := float64(ww * wh)
	for y := y0; y < y0+wh; y++ {
		for x := x0; x < x0+ww; x++ {
			ma += a[y*w+x]
			mb += b[y*w+x]
		}
	}
	ma /= n
	mb /= n
	var va, vb, cov float64
	for y := y0; y < y0+wh; y++ {
		for x := x0; x < x0+ww; x++ {
			da := a[y*w+x] - ma
			db := b[y*w+x] - mb
			va += float64(da * da)
			vb += float64(db * db)
			cov += float64(da * db)
		}
	}
	va /= n - 1
	vb /= n - 1
	cov /= n - 1
	return ((float64(2*ma*mb) + ssimC1) * (float64(2*cov) + ssimC2)) /
		((float64(ma*ma) + float64(mb*mb) + ssimC1) * (va + vb + ssimC2))
}

// Stats summarizes a series of per-frame metric values.
type Stats struct {
	Mean, Min, Max, StdDev float64
	N                      int
}

// Summarize computes summary statistics over vals, ignoring +Inf entries
// (identical frames under PSNR).
func Summarize(vals []float64) Stats {
	var s Stats
	var sum, sumsq float64
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, v := range vals {
		if math.IsInf(v, 1) {
			continue
		}
		sum += v
		sumsq += float64(v * v)
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		s.N++
	}
	if s.N == 0 {
		return Stats{}
	}
	s.Mean = sum / float64(s.N)
	variance := sumsq/float64(s.N) - float64(s.Mean*s.Mean)
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	return s
}
