package tensor

import "math"

// Int8 GEMM kernels. The quantized inference path trades the float32
// kernels' row-major column matrix for a transposed "im2row" layout:
// each output pixel owns one contiguous record that lines up
// element-for-element with a row of the flattened weight matrix, so
// every output element is a dot product of two contiguous int8 vectors.
//
// A scalar int8 dot product cannot beat the float32 kernel — integer
// and float multiplies issue at the same rate — so the blocked kernel
// computes three products per hardware multiply with a SWAR packing:
// both operands are biased to unsigned (v+128 ∈ [1,255]) and three
// consecutive elements are packed into 18-bit lanes of a uint64 — lanes
// at bits {0, 18, 36} in the weight operand and {46, 28, 10} in the
// record operand. In the 64-bit (wrapping) product w·r the diagonal of
// the lane polynomials,
//
//	Σ_{t=0..2} w'[t]·r'[t],
//
// lands exactly in bits [46, 64): each cross-term group is a sum of at
// most three biased products ≤ 3·255² = 195075 < 2¹⁸, so no group ever
// carries into its neighbour, the group above the diagonal begins at
// bit 64 and wraps away, and the extraction (prod>>46)&(2¹⁸−1) is
// exact. One two-operand multiply plus a shift, a mask, and an add
// replace three multiply-accumulates. The bias unbiases through the
// exact identity
//
//	Σ a·b = Σ a'·b' − 128·Σa' − 128·Σb' + 128²·kp
//
// over the padded length kp (padding packs as the bias value, i.e.
// int8 0, and cancels in the identity), with the operand sums
// accumulated once at pack time. The result is the bit-exact int32
// accumulation of the naive int8 kernel — integer addition is
// associative, so any blocking, banding, or parallel split produces
// identical sums — at a third of the multiply count and far fewer ALU
// ops per term.
//
// Weight rows are packed four at a time, interleaved word-by-word
// (block word t·4+j is word t of row j), so the four-row dot loop walks
// ONE advancing pointer with constant displacements instead of four —
// with separate row slices the loop body clobbers the pointer registers
// and reloads three of them from the stack every iteration.
//
// The fused epilogue requantizes each finished sum with its per-row
// scale, adds the bias, and optionally applies ReLU; it is a fixed
// per-element float expression shared with the naive reference, so full
// outputs are bit-identical across worker counts, band boundaries, and
// the reference kernel.

const (
	// swarLane is the lane width of the packed representation. Three
	// lanes of biased products (≤ 3·255² < 2¹⁸) never carry.
	swarLane = 18
	swarMask = 1<<swarLane - 1
	// swarBias shifts int8 values to unsigned [1, 255] so lane groups
	// are non-negative and extraction needs no sign handling.
	swarBias = 128
	// swarGroup is how many int8 elements pack into one uint64.
	swarGroup = 3
	// swarDiagShift is where the diagonal group starts: the record
	// operand's top lane sits at 64−swarLane so the diagonal fills the
	// top of the low product word and the lane above wraps away.
	swarDiagShift = 64 - swarLane
	// swarMaxK bounds the padded reduction length: beyond it the biased
	// dot (≤ kp·255²) could overflow the int32 accumulator contract.
	swarMaxK = 1 << 14
)

// packedGroups returns the packed-word count for a k-long operand
// section (k rounded up to a multiple of swarGroup).
func packedGroups(k int) int { return (k + swarGroup - 1) / swarGroup }

// packInt8RowsBlocked packs rows of int8 into the blocked-interleaved
// low-lane weight layout consumed by the int8 conv (and by the plain
// GEMM the tests keep, gemmInt8Rows in ref_test.go).
// Each row is numSec sections of secLen elements; every section is
// padded independently to a whole number of groups (gs =
// packedGroups(secLen)), so a row occupies g = numSec·gs words. Rows
// are grouped four at a time with their words interleaved — word t of
// row 4b+j lands at dst[b·4g + t·4 + j] — and the ≤3 leftover rows
// follow flat at dst[(rows/4)·4g + r·g + t]. sums[i] receives Σ(v+128)
// over row i's padded elements. Sections matter to the conv, whose
// records are one packed window row per kernel row (rowPortable); plain
// GEMM callers pass numSec=1, secLen=k.
func packInt8RowsBlocked(src []int8, rows, secLen, numSec int, dst, sums []uint64) {
	gs := packedGroups(secLen)
	g := numSec * gs
	if swarGroup*g > swarMaxK {
		panic("tensor: int8 GEMM reduction too large")
	}
	nb4 := rows / 4
	rowLen := secLen * numSec
	for i := 0; i < rows; i++ {
		row := src[i*rowLen : (i+1)*rowLen]
		var sum uint64
		for s := 0; s < numSec; s++ {
			sec := row[s*secLen : (s+1)*secLen]
			for t := 0; t < gs; t++ {
				var v [swarGroup]uint64
				for q := 0; q < swarGroup; q++ {
					if e := t*swarGroup + q; e < secLen {
						v[q] = uint64(int64(sec[e]) + swarBias)
					} else {
						v[q] = swarBias // padding packs as int8 value 0
					}
					sum += v[q]
				}
				word := v[0] | v[1]<<swarLane | v[2]<<(2*swarLane)
				wi := s*gs + t
				if b := i / 4; b < nb4 {
					dst[b*4*g+wi*4+i&3] = word
				} else {
					dst[nb4*4*g+(i-nb4*4)*g+wi] = word
				}
			}
		}
		sums[i] = sum
	}
}

// swarDot3 extracts the diagonal lane of one packed multiply: the sum
// of the three biased products aligned by the opposing lane orders. The
// wrapping 64-bit product is exactly the low word; everything above the
// diagonal group wraps away.
func swarDot3(w, r uint64) uint64 {
	return (w * r >> swarDiagShift) & swarMask
}

// swarDotRows4 runs one packed record section against an interleaved
// four-row weight block (w holds 4·len(r) words, word t·4+j belonging
// to row j), returning the four biased diagonal sums. Kept out of the
// caller's loop body on purpose: in isolation the accumulators, the two
// pointers, and the loop state all fit in registers, where the same
// code inlined into an epilogue-heavy frame spills on every iteration
// (~35% slower measured).
//
//go:noinline
func swarDotRows4(w, r []uint64) (d0, d1, d2, d3 uint64) {
	w = w[:4*len(r)]
	j := 0
	for _, rv := range r {
		d0 += swarDot3(w[j], rv)
		d1 += swarDot3(w[j+1], rv)
		d2 += swarDot3(w[j+2], rv)
		d3 += swarDot3(w[j+3], rv)
		j += 4
	}
	return d0, d1, d2, d3
}

// swarDotRow1 runs one packed record section against a single flat
// weight row. Separate and noinline for the same register-pressure
// reason as swarDotRows4: inlined into the remainder loop of a GEMM it
// inherits a frame that spills the hot values.
//
//go:noinline
func swarDotRow1(w, r []uint64) uint64 {
	w = w[:len(r)]
	var d uint64
	for t, rv := range r {
		d += swarDot3(w[t], rv)
	}
	return d
}

// requantInt8 is the shared epilogue of the blocked kernel and the naive
// reference: one float32 multiply, one add, optional ReLU — identical
// expressions, so parity between the two kernels is exact, not
// approximate.
func requantInt8(acc int32, scale, bias float32, relu bool) float32 {
	v := float32(acc)*scale + bias
	if relu && v < 0 {
		v = 0
	}
	return v
}

// QuantizeInt8Into quantizes src into dst with the symmetric multiplier
// inv (typically 127 / calibrated maxabs): each element is scaled,
// rounded half-away-from-zero, and clamped to [-127, 127]. The rounding
// is a fixed per-element float32 expression, so results are
// deterministic regardless of how callers split the work.
func QuantizeInt8Into(dst []int8, src []float32, inv float32) {
	if len(dst) != len(src) {
		panic("tensor: QuantizeInt8Into length mismatch")
	}
	if n := len(src) &^ 31; useAVX2 && n > 0 {
		// The same expression 32 lanes at a time; the loop below takes
		// what is left.
		quantizeInt8AVX2(&dst[0], &src[0], n, inv)
		dst, src = dst[n:], src[n:]
	}
	for i, v := range src {
		f := v * inv
		// Branchless half-away-from-zero: add ±0.5 with f's own sign
		// bit, then truncate. Activation signs are effectively random,
		// so an if/else here costs a mispredict per element.
		half := math.Float32frombits(math.Float32bits(f)&0x80000000 | 0x3F000000)
		q := int32(f + half)
		if q > 127 {
			q = 127
		}
		if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
}
