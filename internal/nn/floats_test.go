package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

// specialBits are float32 fields a payload may carry that arithmetic
// would not preserve: NaNs with payload bits (quiet and signalling, both
// signs), both zeros, subnormals and both infinities.
var specialBits = []uint32{
	0x7fc00001, 0x7fa5a5a5, 0x7f800001, 0xffc12345, 0xff800002,
	0x00000000, 0x80000000,
	0x00000001, 0x007fffff, 0x80000001, 0x807fffff,
	0x7f800000, 0xff800000,
}

// fillSpecial overwrites v with random values and every special bit
// pattern, spread over the slice.
func fillSpecial(v []float32, rng *rand.Rand) {
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	for i, b := range specialBits {
		v[(i*7919)%len(v)] = math.Float32frombits(b)
	}
}

// withLane runs fn with readFloats set to lane.
func withLane(lane func(io.Reader, []float32) error, fn func()) {
	prev := readFloats
	readFloats = lane
	defer func() { readFloats = prev }()
	fn()
}

// lanes are this build's readFloats and the portable loop it must match
// bit for bit (the same function where the build has no direct lane).
func lanes() map[string]func(io.Reader, []float32) error {
	return map[string]func(io.Reader, []float32) error{"native": readFloats, "portable": readFloatsGo}
}

// decodeBoth decodes data into a fresh model through each lane with
// decode and fails unless both give the same error and the same weights
// (and grids), bit for bit. It returns the portable lane's model.
func decodeBoth(t *testing.T, name string, data []byte, decode func([]byte, []*Param) error) []*Param {
	t.Helper()
	got := map[string][]*Param{}
	errs := map[string]string{}
	for lane, fn := range lanes() {
		dst := fuzzModel(9)
		withLane(fn, func() {
			if err := decode(data, dst); err != nil {
				errs[lane] = err.Error()
			}
		})
		got[lane] = dst
	}
	if errs["native"] != errs["portable"] {
		t.Fatalf("%s: native lane %q, portable lane %q", name, errs["native"], errs["portable"])
	}
	if errs["native"] != "" {
		return nil
	}
	if !bitsEqual(got["native"], got["portable"]) {
		t.Fatalf("%s: the lanes decode different weights", name)
	}
	for i, p := range got["native"] {
		q := got["portable"][i]
		if (p.grid == nil) != (q.grid == nil) {
			t.Fatalf("%s: param %d pinned a grid on one lane only", name, i)
		}
		if p.grid != nil && fmt.Sprint(f32bits(p.grid.scales), p.grid.codes) != fmt.Sprint(f32bits(q.grid.scales), q.grid.codes) {
			t.Fatalf("%s: param %d: the lanes pin different grids", name, i)
		}
	}
	return got["portable"]
}

func f32bits(v []float32) []uint32 {
	b := make([]uint32, len(v))
	for i, f := range v {
		b[i] = math.Float32bits(f)
	}
	return b
}

func loadBytes(data []byte, dst []*Param) error { return LoadWeights(bytes.NewReader(data), dst) }

// TestReadFloatsLanesAgree: dcW1 weights, dcW6 biases and scales and
// dcW5 scales decode to the same bits through the direct read and the
// portable loop, special values included, and every truncation of each
// payload fails the same way on both.
func TestReadFloatsLanesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))

	full := fuzzModel(1)
	for _, p := range full {
		fillSpecial(p.W.Data, rng)
	}
	dcW1 := EncodeWeights(full)
	if got := decodeBoth(t, "dcW1", dcW1, loadBytes); !bytes.Equal(EncodeWeights(got), dcW1) {
		t.Fatal("dcW1: the decoded weights do not re-encode to the payload")
	}

	grid := gridModel(2)
	for _, p := range grid {
		if p.grid == nil {
			fillSpecial(p.W.Data, rng)
			continue
		}
		// Scales must be finite and positive: the smallest subnormal,
		// the largest normal whose ×127 stays finite, random ones.
		for i := range p.grid.scales {
			p.grid.scales[i] = float32(rng.ExpFloat64())
		}
		p.grid.scales[0] = math.Float32frombits(1)
		p.grid.scales[len(p.grid.scales)-1] = math.MaxFloat32 / 128
	}
	dcW6, err := EncodeWeightsGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeBoth(t, "dcW6", dcW6, loadBytes); got == nil {
		t.Fatal("dcW6: refused")
	} else if again, err := EncodeWeightsGrid(got); err != nil || !bytes.Equal(again, dcW6) {
		t.Fatalf("dcW6: the decoded grid does not re-encode to the payload (%v)", err)
	}
	// The head's first scale is its first float32 field after the
	// header and the param's two counts: a NaN there is refused on both.
	nanScale := bytes.Clone(dcW6)
	binary.LittleEndian.PutUint32(nanScale[16:], specialBits[0])
	if decodeBoth(t, "dcW6 NaN scale", nanScale, loadBytes) != nil {
		t.Fatal("a NaN grid scale was accepted")
	}

	backbone, target := fuzzModel(3), fuzzModel(4)
	delta, err := EncodeWeightsDelta(backbone, target)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the head's scales (its 4 rows, after the magic, digest,
	// count and the param's two counts) with special values.
	for i := range 4 {
		binary.LittleEndian.PutUint32(delta[48+4*i:], specialBits[4*i])
	}
	applyDelta := func(data []byte, dst []*Param) error { return ApplyWeightsDelta(backbone, data, dst) }
	if decodeBoth(t, "dcW5", delta, applyDelta) == nil {
		t.Fatal("dcW5: refused")
	}

	for _, tc := range []struct {
		name   string
		data   []byte
		decode func([]byte, []*Param) error
	}{{"dcW1", dcW1, loadBytes}, {"dcW6", dcW6, loadBytes}, {"dcW5", delta, applyDelta}} {
		for n := range len(tc.data) {
			decodeBoth(t, fmt.Sprintf("%s cut at %d", tc.name, n), tc.data[:n], tc.decode)
		}
	}
}
