package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// Property-style coverage for the dcW5 delta codec: random models,
// zero-delta and adversarial near-duplicate weights, wrong-backbone
// rejection, and payload corruption. The central invariant is determinism: whatever weights the
// encoder's reconstruction implies, ApplyWeightsDelta reproduces them
// bit-identically on every decode.

func quantModel(t *testing.T, seed int64) *Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return &Sequential{Layers: []Layer{
		NewConv2D(rng, 3, 4, 3, 1, 1), &ReLU{}, NewConv2D(rng, 4, 3, 3, 1, 1),
	}}
}

func bitsEqual(a, b []*Param) bool {
	for i := range a {
		for j, v := range a[i].W.Data {
			if math.Float32bits(v) != math.Float32bits(b[i].W.Data[j]) {
				return false
			}
		}
	}
	return true
}

// TestDeltaRoundTripProperty: for random backbone/target pairs, the delta
// (a) beats the full dcW1 encoding, (b) applies deterministically —
// two independent decodes agree bit-for-bit — and (c) reconstructs each
// weight to within half its channel's residual quantization step.
func TestDeltaRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		backbone := quantModel(t, 100+seed)
		target := quantModel(t, 200+seed)
		delta, err := EncodeWeightsDelta(backbone.Params(), target.Params())
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		full := EncodeWeights(target.Params())
		if len(delta) >= len(full) {
			t.Fatalf("seed %d: delta %d B not smaller than full %d B", seed, len(delta), len(full))
		}
		dst1, dst2 := quantModel(t, 300+seed), quantModel(t, 400+seed)
		if err := ApplyWeightsDelta(backbone.Params(), delta, dst1.Params()); err != nil {
			t.Fatalf("seed %d: apply: %v", seed, err)
		}
		if err := ApplyWeightsDelta(backbone.Params(), delta, dst2.Params()); err != nil {
			t.Fatalf("seed %d: apply (second decode): %v", seed, err)
		}
		if !bitsEqual(dst1.Params(), dst2.Params()) {
			t.Fatalf("seed %d: two decodes disagree bit-for-bit", seed)
		}
		for i, p := range target.Params() {
			sc := scaleCount(p)
			rowLen := p.W.Len() / sc
			for ch := 0; ch < sc; ch++ {
				var maxAbs float64
				for j := ch * rowLen; j < (ch+1)*rowLen; j++ {
					r := math.Abs(float64(p.W.Data[j]) - float64(backbone.Params()[i].W.Data[j]))
					if r > maxAbs {
						maxAbs = r
					}
				}
				step := maxAbs / 127
				for j := ch * rowLen; j < (ch+1)*rowLen; j++ {
					got := dst1.Params()[i].W.Data[j]
					if math.Abs(float64(got-p.W.Data[j])) > step/2+1e-7 {
						t.Fatalf("seed %d param %d[%d]: %v -> %v exceeds half step %v",
							seed, i, j, p.W.Data[j], got, step)
					}
				}
			}
		}
	}
}

// TestDeltaZeroDelta: encoding a model against itself yields a near-empty
// sparse delta whose application reproduces the weights bit-exactly —
// including a planted negative zero, which x+0 arithmetic would destroy.
func TestDeltaZeroDelta(t *testing.T) {
	backbone := quantModel(t, 7)
	backbone.Params()[0].W.Data[0] = float32(math.Copysign(0, -1))
	target := quantModel(t, 8)
	if err := CopyWeights(target.Params(), backbone.Params()); err != nil {
		t.Fatal(err)
	}
	delta, err := EncodeWeightsDelta(backbone.Params(), target.Params())
	if err != nil {
		t.Fatal(err)
	}
	full := EncodeWeights(target.Params())
	if len(delta) >= len(full)/4 {
		t.Fatalf("zero delta is %d B, full %d B; expected a tiny payload", len(delta), len(full))
	}
	dst := quantModel(t, 9)
	if err := ApplyWeightsDelta(backbone.Params(), delta, dst.Params()); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(dst.Params(), target.Params()) {
		t.Fatal("zero-delta reconstruction is not bit-identical")
	}
	if math.Signbit(float64(dst.Params()[0].W.Data[0])) != true {
		t.Fatal("negative zero did not survive the zero-delta round trip")
	}
}

// TestDeltaNearDuplicate: an adversarial near-duplicate — the backbone
// with a handful of perturbed weights — must pick the sparse encoding,
// shrink far below the dense form, and keep every untouched channel
// bit-exact (their residual scale is zero, so codes copy the backbone).
func TestDeltaNearDuplicate(t *testing.T) {
	backbone := quantModel(t, 20)
	target := quantModel(t, 21)
	if err := CopyWeights(target.Params(), backbone.Params()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	touched := map[[2]int]bool{}
	for k := 0; k < 5; k++ {
		pi := rng.Intn(len(target.Params()))
		j := rng.Intn(target.Params()[pi].W.Len())
		target.Params()[pi].W.Data[j] += 0.25
		touched[[2]int{pi, j}] = true
	}
	delta, err := EncodeWeightsDelta(backbone.Params(), target.Params())
	if err != nil {
		t.Fatal(err)
	}
	var elems int
	for _, p := range target.Params() {
		elems += p.W.Len()
	}
	// Dense code sections alone would cost `elems` bytes; a sparse
	// near-duplicate delta must undercut that.
	if len(delta) >= elems {
		t.Fatalf("near-duplicate delta is %d B for %d weights; sparse mode not engaged", len(delta), elems)
	}
	dst := quantModel(t, 23)
	if err := ApplyWeightsDelta(backbone.Params(), delta, dst.Params()); err != nil {
		t.Fatal(err)
	}
	for pi, p := range dst.Params() {
		sc := scaleCount(p)
		rowLen := p.W.Len() / sc
		for j, v := range p.W.Data {
			if touched[[2]int{pi, j}] {
				continue
			}
			// Untouched weight: bit-exact unless it shares a channel with a
			// perturbed weight (then it is still within half a step).
			rowTouched := false
			for k := range touched {
				if k[0] == pi && k[1]/rowLen == j/rowLen {
					rowTouched = true
				}
			}
			if rowTouched {
				continue
			}
			if math.Float32bits(v) != math.Float32bits(backbone.Params()[pi].W.Data[j]) {
				t.Fatalf("untouched weight %d[%d] changed: %v -> %v", pi, j, backbone.Params()[pi].W.Data[j], v)
			}
		}
	}
}

// TestDeltaWrongBackbone: applying a delta against any backbone other
// than the one it was encoded for must fail the digest check up front.
func TestDeltaWrongBackbone(t *testing.T) {
	backbone := quantModel(t, 40)
	target := quantModel(t, 41)
	delta, err := EncodeWeightsDelta(backbone.Params(), target.Params())
	if err != nil {
		t.Fatal(err)
	}
	wrong := quantModel(t, 42)
	dst := quantModel(t, 43)
	if err := ApplyWeightsDelta(wrong.Params(), delta, dst.Params()); err == nil {
		t.Fatal("applying against the wrong backbone succeeded")
	}
	d, err := DeltaBackboneDigest(delta)
	if err != nil {
		t.Fatal(err)
	}
	var zero [DeltaDigestSize]byte
	if d == zero {
		t.Fatal("backbone digest is zero")
	}
}

// TestDeltaCorruptPayload: truncations and garbage must error, never
// panic or silently produce weights.
func TestDeltaCorruptPayload(t *testing.T) {
	backbone := quantModel(t, 50)
	target := quantModel(t, 51)
	delta, err := EncodeWeightsDelta(backbone.Params(), target.Params())
	if err != nil {
		t.Fatal(err)
	}
	dst := quantModel(t, 52)
	for _, n := range []int{0, 3, 4 + DeltaDigestSize, len(delta) / 2, len(delta) - 1} {
		if err := ApplyWeightsDelta(backbone.Params(), delta[:n], dst.Params()); err == nil {
			t.Fatalf("truncation to %d bytes applied cleanly", n)
		}
	}
	long := append(append([]byte{}, delta...), 0xFF)
	if err := ApplyWeightsDelta(backbone.Params(), long, dst.Params()); err == nil {
		t.Fatal("trailing garbage applied cleanly")
	}
	if err := LoadWeights(bytes.NewReader(delta), dst.Params()); err == nil {
		t.Fatal("LoadWeights accepted a dcW5 payload without a backbone")
	}
}
