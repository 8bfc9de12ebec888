package codec

import (
	"math"

	"dcsr/internal/video"
)

// Motion-compensation helpers. Vectors are full-pel, or half-pel when the
// frame says so (below); reference reads are edge-clamped, which matches
// the unrestricted-motion-vector behaviour of modern codecs without
// needing padded reference planes. Every fetch has two paths that produce
// the same samples: whole rows when the displaced block lies inside the
// plane (the common case), per-sample clamping when it crosses an edge or
// a hostile vector points far outside.

// mv is a motion vector in luma units: full samples, or half samples in a
// half-pel frame.
type mv struct{ x, y int }

// clampi clamps v into [lo, hi].
func clampi(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sample is a plane element: 8-bit pictures, 16-bit enhancement deltas.
type sample interface{ uint8 | int16 }

// fetchBlock copies a bw×bh block at (x+m.x, y+m.y) from plane src
// (dimensions pw×ph) into dst, clamping reads at the plane edges.
func fetchBlock[T sample](src []T, pw, ph, x, y int, m mv, bw, bh int, dst []int32) {
	x, y = x+m.x, y+m.y
	if x >= 0 && x <= pw-bw && y >= 0 && y <= ph-bh {
		for by := 0; by < bh; by++ {
			d := dst[by*bw:][:bw]
			for bx, v := range src[(y+by)*pw+x:][:bw] {
				d[bx] = int32(v)
			}
		}
		return
	}
	for by := 0; by < bh; by++ {
		row := src[clampi(y+by, 0, ph-1)*pw:]
		for bx := 0; bx < bw; bx++ {
			dst[by*bw+bx] = int32(row[clampi(x+bx, 0, pw-1)])
		}
	}
}

// Half-pel support: when a frame is coded with half-pel motion, vectors
// are expressed in half-sample units and prediction samples at fractional
// positions are bilinearly interpolated (H.264 uses a 6-tap filter for
// luma; bilinear is the documented simplification here). Chroma vectors
// round to the nearest full chroma sample.

// floorDiv2 divides by 2 rounding toward −∞ (half-pel integer part).
func floorDiv2(v int) int {
	if v < 0 {
		return (v - 1) / 2
	}
	return v / 2
}

// fetchBlockHP copies a bw×bh block displaced by the half-pel vector m
// from src into dst, bilinearly interpolating fractional positions.
func fetchBlockHP[T sample](src []T, pw, ph, x, y int, m mv, bw, bh int, dst []int32) {
	fx, fy := m.x&1, m.y&1
	if fx == 0 && fy == 0 {
		fetchBlock(src, pw, ph, x, y, mv{floorDiv2(m.x), floorDiv2(m.y)}, bw, bh, dst)
		return
	}
	x, y = x+floorDiv2(m.x), y+floorDiv2(m.y)
	if x >= 0 && x <= pw-bw-fx && y >= 0 && y <= ph-bh-fy {
		for by := 0; by < bh; by++ {
			r0 := src[(y+by)*pw+x:][:bw+fx]
			r1 := src[(y+by+fy)*pw+x:][:bw+fx]
			d := dst[by*bw:][:bw]
			for bx := range d {
				d[bx] = (int32(r0[bx]) + int32(r0[bx+fx]) + int32(r1[bx]) + int32(r1[bx+fx]) + 2) / 4
			}
		}
		return
	}
	for by := 0; by < bh; by++ {
		r0 := src[clampi(y+by, 0, ph-1)*pw:]
		r1 := src[clampi(y+by+fy, 0, ph-1)*pw:]
		for bx := 0; bx < bw; bx++ {
			x0, x1 := clampi(x+bx, 0, pw-1), clampi(x+bx+fx, 0, pw-1)
			dst[by*bw+bx] = (int32(r0[x0]) + int32(r0[x1]) + int32(r1[x0]) + int32(r1[x1]) + 2) / 4
		}
	}
}

// fetchMC is fetchBlockHP in a half-pel frame and fetchBlock otherwise.
func fetchMC[T sample](src []T, pw, ph, x, y int, m mv, hp bool, bw, bh int, dst []int32) {
	if hp {
		fetchBlockHP(src, pw, ph, x, y, m, bw, bh, dst)
	} else {
		fetchBlock(src, pw, ph, x, y, m, bw, bh, dst)
	}
}

// fetchBlockAvg fetches the rounded average of two motion-compensated
// blocks (bi-prediction for B frames).
func fetchBlockAvg(src0 []uint8, m0 mv, src1 []uint8, m1 mv, pw, ph, x, y int, hp bool, bw, bh int, s *mbScratch, dst []int32) {
	t0, t1 := s.t0[:bw*bh], s.t1[:bw*bh]
	fetchMC(src0, pw, ph, x, y, m0, hp, bw, bh, t0)
	fetchMC(src1, pw, ph, x, y, m1, hp, bw, bh, t1)
	for i := range t0 {
		dst[i] = (t0[i] + t1[i] + 1) / 2
	}
}

// Every SAD below takes the incumbent best as limit and gives up once its
// partial sum reaches it: the result is exact when it is below limit and
// some value ≥ limit otherwise. The searches only ever ask "sad < best",
// so either answer decides the same way.

// sad16Go is the portable 16×16 SAD over two blocks that start at cur[0]
// and ref[0] in planes of the given stride; the assembly kernel's
// fallback and oracle.
func sad16Go(cur, ref []uint8, stride, limit int) int {
	var sad int
	for by := 0; by < mbSize && sad < limit; by++ {
		r := ref[by*stride:][:mbSize]
		for bx, v := range cur[by*stride:][:mbSize] {
			d := int(v) - int(r[bx])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// sadBlock computes the sum of absolute differences between the 16×16 cur
// block at (x, y) and the reference block displaced by the full-pel m.
func sadBlock(cur, ref []uint8, pw, ph, x, y int, m mv, limit int) int {
	if sx, sy := x+m.x, y+m.y; sx >= 0 && sx <= pw-mbSize && sy >= 0 && sy <= ph-mbSize {
		return sad16(cur[y*pw+x:], ref[sy*pw+sx:], pw, limit)
	}
	return sadMC(cur, ref, pw, ph, x, y, m, false, limit)
}

// sadMC is the 16×16 SAD against a motion-compensated fetch, one row at a
// time: any vector, full- or half-pel.
func sadMC(cur, ref []uint8, pw, ph, x, y int, m mv, hp bool, limit int) int {
	var row [mbSize]int32
	var sad int
	for by := 0; by < mbSize && sad < limit; by++ {
		fetchMC(ref, pw, ph, x, y+by, m, hp, mbSize, 1, row[:])
		for bx, v := range cur[(y+by)*pw+x:][:mbSize] {
			d := int(v) - int(row[bx])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// refineHalfPel upgrades a full-pel winner to half-pel by trying the 8
// surrounding half-sample offsets; returns the vector in half-pel units.
func refineHalfPel(cur, ref []uint8, pw, ph, x, y int, full mv) mv {
	best := mv{full.x * 2, full.y * 2}
	bestSAD := sadBlock(cur, ref, pw, ph, x, y, full, math.MaxInt)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			cand := mv{full.x*2 + dx, full.y*2 + dy}
			if sad := sadMC(cur, ref, pw, ph, x, y, cand, true, bestSAD); sad < bestSAD {
				best, bestSAD = cand, sad
			}
		}
	}
	return best
}

// searchMV finds the motion vector minimizing SAD for the 16×16 luma block
// at (x, y) using a two-stage search: a coarse step-4 scan over ±rng
// followed by a local step-1 refinement. pred biases tie-breaking toward
// the predicted vector so MV fields stay smooth (cheaper to entropy-code).
func searchMV(cur, ref []uint8, pw, ph, x, y, rng int, pred mv) mv {
	best := mv{0, 0}
	bestSAD := sadBlock(cur, ref, pw, ph, x, y, best, math.MaxInt)
	try := func(cand mv) bool {
		sad := sadBlock(cur, ref, pw, ph, x, y, cand, bestSAD)
		if sad >= bestSAD {
			return false
		}
		best, bestSAD = cand, sad
		return true
	}
	try(pred)
	// Coarse scan.
	for dy := -rng; dy <= rng; dy += 4 {
		for dx := -rng; dx <= rng; dx += 4 {
			if cand := (mv{dx, dy}); cand != best {
				try(cand)
			}
		}
	}
	// Local refinement around the coarse winner.
	for {
		improved := false
		for _, d := range [...]mv{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}} {
			cand := mv{best.x + d.x, best.y + d.y}
			if cand.x < -rng || cand.x > rng || cand.y < -rng || cand.y > rng {
				continue
			}
			if try(cand) {
				improved = true
			}
		}
		if !improved {
			return best
		}
	}
}

// planes bundles the three planes of a frame with their dimensions, giving
// uniform per-plane access to coding loops.
type planes struct {
	y, u, v []uint8
	lw, lh  int // luma dimensions
	cw, ch  int // chroma dimensions
}

func framePlanes(f *video.YUV) planes {
	return planes{y: f.Y, u: f.U, v: f.V, lw: f.W, lh: f.H, cw: f.ChromaW(), ch: f.ChromaH()}
}
