package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
)

// Fuzz targets for the weight decoders a viewer feeds with bytes off the
// network: dcW1 and dcW6 (LoadWeights) and the dcW5 delta
// (ApplyWeightsDelta).
// The property is the one every decoder of untrusted bytes owes: an
// error or valid weights, never a panic, and no allocation a payload can
// inflate — what a call allocates is bounded by the input's length plus
// the caller's own model, whatever sizes the payload claims.

// fuzzModel is a micro EDSR in miniature: a 3→4 head, one residual block
// and a 4→3 tail — conv weights (per-channel delta scales) and biases
// (one scale) both.
func fuzzModel(seed int64) []*Param {
	rng := rand.New(rand.NewSource(seed))
	var ps []*Param
	for _, l := range []Layer{NewConv2D(3, 4, 3, 1, 1).InitHe(rng), NewResBlock(4, 1).InitHe(rng), NewConv2D(4, 3, 3, 1, 1).InitHe(rng)} {
		ps = append(ps, l.Params()...)
	}
	for _, p := range ps {
		if len(p.W.Shape) == 1 { // biases start at zero
			for i := range p.W.Data {
				p.W.Data[i] = float32(rng.NormFloat64() * 0.1)
			}
		}
	}
	return ps
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding data into a model of modelBytes may
// allocate: a few copies of the model (the backbone digest re-encodes it,
// a parameter is staged whole), a constant per input byte, and slack for
// the runtime's own bookkeeping.
func allocBound(data []byte, modelBytes int) uint64 {
	return uint64(4*modelBytes + 16*len(data) + 64<<10)
}

// addTruncations seeds f with payload and prefixes of it cut inside every
// field of the header and of the first and last parameter.
func addTruncations(f *testing.F, payload []byte) {
	f.Add(payload)
	for _, n := range []int{0, 3, 4, 7, 8, 11, 12, 40, 43, 44, 47, 48, len(payload) / 2, len(payload) - 5, len(payload) - 1} {
		if n >= 0 && n < len(payload) {
			f.Add(payload[:n])
		}
	}
}

func FuzzLoadWeights(f *testing.F) {
	addTruncations(f, EncodeWeights(fuzzModel(1)))
	grid, err := EncodeWeightsGrid(gridModel(1))
	if err != nil {
		f.Fatal(err)
	}
	addTruncations(f, grid)
	// NaNs with payload bits, signed zeros, subnormals and infinities in
	// dcW1 weights and dcW6 biases must re-encode bit for bit.
	rng := rand.New(rand.NewSource(6))
	nan, nanGrid := fuzzModel(2), gridModel(2)
	for _, p := range append(nan, nanGrid...) {
		if p.grid == nil {
			fillSpecial(p.W.Data, rng)
		}
	}
	f.Add(EncodeWeights(nan))
	if grid, err = EncodeWeightsGrid(nanGrid); err != nil {
		f.Fatal(err)
	}
	f.Add(grid)
	modelBytes := WeightsSize(fuzzModel(2))
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := fuzzModel(2)
		var err error
		if n := allocated(func() { err = LoadWeights(bytes.NewReader(data), dst) }); n > allocBound(data, modelBytes) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		// Valid weights: exactly what the payload encodes, in its format.
		got := EncodeWeights(dst)
		if IsGridPayload(data) {
			if got, err = EncodeWeightsGrid(dst); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, data) {
			t.Fatal("LoadWeights accepted a payload its weights do not re-encode to")
		}
	})
}

func FuzzApplyWeightsDelta(f *testing.F) {
	backbone := fuzzModel(1)
	target := fuzzModel(1)
	for i := range target[0].W.Data { // the head moves everywhere: a dense residual
		target[0].W.Data[i] *= 1.5
	}
	target[2].W.Data[7] += 0.25 // one weight of the block's first conv: a sparse one
	delta, err := EncodeWeightsDelta(backbone, target)
	if err != nil {
		f.Fatal(err)
	}
	addTruncations(f, delta)
	// Special scales: a NaN with payload bits, −Inf, a subnormal and −0
	// over the head's four rows.
	nan := bytes.Clone(delta)
	for i, b := range []uint32{0x7fa5a5a5, 0xff800000, 0x00000001, 0x80000000} {
		binary.LittleEndian.PutUint32(nan[48+4*i:], b)
	}
	f.Add(nan)
	modelBytes := WeightsSize(backbone)
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := fuzzModel(3)
		var err error
		if n := allocated(func() { err = ApplyWeightsDelta(backbone, data, dst) }); n > allocBound(data, modelBytes) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		// Valid weights: a second decode reproduces them bit for bit.
		again := fuzzModel(4)
		if err := ApplyWeightsDelta(backbone, data, again); err != nil {
			t.Fatalf("a delta applied once fails the second time: %v", err)
		}
		if !bitsEqual(dst, again) {
			t.Fatal("two decodes of one delta disagree")
		}
	})
}
