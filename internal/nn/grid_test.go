package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dcsr/internal/tensor"
)

// Tests for the pinned int8 grid: what snapping keeps, which writes drop
// it, and the dcW6 payload that carries it.

// snappedConv is a calibrated 3→4 convolution snapped onto its int8 grid.
func snappedConv(seed int64) *Conv2D {
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D(rng, 3, 4, 3, 1, 1)
	x := tensor.New(1, 3, 6, 5)
	x.Randn(rng, 1)
	calibrateOn(c, x)
	c.SnapInt8()
	return c
}

// gridEqual reports whether two grids hold the same codes and scale bits.
func gridEqual(a, b *int8Grid) bool {
	if len(a.codes) != len(b.codes) || len(a.scales) != len(b.scales) {
		return false
	}
	for i, s := range a.scales {
		if math.Float32bits(s) != math.Float32bits(b.scales[i]) {
			return false
		}
	}
	return bytes.Equal(int8sAsBytes(a.codes), int8sAsBytes(b.codes))
}

func int8sAsBytes(v []int8) []byte {
	b := make([]byte, len(v))
	for i, c := range v {
		b[i] = byte(c)
	}
	return b
}

// TestSnapInt8KeepsInt8State: snapping leaves the int8 state and its
// output as they were, makes W the grid's dequantization, and a re-arm
// from the pinned grid rebuilds the same state.
func TestSnapInt8KeepsInt8State(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, 3, 4, 3, 1, 1)
	x := tensor.New(1, 3, 6, 5)
	x.Randn(rng, 1)
	calibrateOn(c, x)
	before := c.ForwardInferenceInt8(x, nil, new(tensor.Int8Map)).Clone()
	q := c.int8
	c.SnapInt8()
	if c.int8 != q || c.Wt.grid != q.grid {
		t.Fatal("SnapInt8 rebuilt the int8 state instead of pinning it")
	}
	n := len(q.grid.codes) / len(q.grid.scales)
	for i, v := range c.Wt.W.Data {
		if want := q.grid.scales[i/n] * float32(q.grid.codes[i]); math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("W[%d] = %v, want the dequantized %v", i, v, want)
		}
	}
	c.QuantizeInt8() // re-arm from the pin
	if !gridEqual(c.int8.grid, q.grid) {
		t.Fatal("re-arming a snapped layer changed its grid")
	}
	after := c.ForwardInferenceInt8(x, nil, new(tensor.Int8Map))
	for i := range after.Data {
		if math.Float32bits(after.Data[i]) != math.Float32bits(before.Data[i]) {
			t.Fatalf("int8 output %d moved across the snap: %v vs %v", i, after.Data[i], before.Data[i])
		}
	}
}

// TestRequantizingTheGridIsNotExact is why a loaded grid is pinned rather
// than re-derived from its dequantization. A scale QuantizeInt8 computes,
// max|w|/127, does come back exactly; but a dcW6 payload may carry any
// finite positive scale, and for some of those the row maximum
// code·scale, divided by 127 again, rounds to a neighbour.
func TestRequantizingTheGridIsNotExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rows, n = 4096, 27
	g := &int8Grid{codes: make([]int8, rows*n), scales: make([]float32, rows)}
	for r := range g.scales {
		g.scales[r] = float32(1e-4 + 0.01*rng.Float64())
		for i := r * n; i < (r+1)*n; i++ {
			g.codes[i] = int8(rng.Intn(255) - 127)
		}
		g.codes[r*n+rng.Intn(n)] = 127 // the row maximum sets the scale
	}
	p := &Param{W: tensor.New(rows, n)}
	p.pin(g)
	again := quantizeGrid(p.W.Data, rows)
	moved := 0
	for r, s := range g.scales {
		if s != again.scales[r] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("re-quantizing %d dequantized rows reproduced every scale", rows)
	}
	t.Logf("%d of %d row scales moved when re-derived", moved, rows)
	own := quantizeGrid(p.W.Data, rows) // scales of QuantizeInt8's own form
	p.pin(own)
	if !gridEqual(quantizeGrid(p.W.Data, rows), own) {
		t.Error("a grid QuantizeInt8 computed does not re-derive from its dequantization")
	}
}

// TestWritersDropGrid: every path that writes W drops the pinned grid, so
// QuantizeInt8 afterwards quantizes the new W instead of arming a grid
// that no longer describes it.
func TestWritersDropGrid(t *testing.T) {
	other := func(seed int64) *Conv2D {
		return NewConv2D(rand.New(rand.NewSource(seed)), 3, 4, 3, 1, 1)
	}
	writers := []struct {
		name  string
		write func(c *Conv2D) error
	}{
		{"Adam.Step", func(c *Conv2D) error {
			for _, p := range c.Params() {
				p.Grad.Randn(rand.New(rand.NewSource(3)), 1)
			}
			NewAdam(1e-2).Step(c.Params())
			return nil
		}},
		{"CopyWeights", func(c *Conv2D) error { return CopyWeights(c.Params(), other(4).Params()) }},
		{"LoadWeights dcW1", func(c *Conv2D) error {
			return LoadWeights(bytes.NewReader(EncodeWeights(other(5).Params())), c.Params())
		}},
		{"ApplyWeightsDelta dst", func(c *Conv2D) error {
			backbone := other(6)
			delta, err := EncodeWeightsDelta(backbone.Params(), other(7).Params())
			if err != nil {
				return err
			}
			return ApplyWeightsDelta(backbone.Params(), delta, c.Params())
		}},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			c := snappedConv(8)
			stale := c.Wt.grid
			if err := w.write(c); err != nil {
				t.Fatal(err)
			}
			if c.Wt.grid != nil {
				t.Fatal("the write kept the pinned grid")
			}
			c.QuantizeInt8()
			want := quantizeGrid(c.Wt.W.Data, c.Spec.OutC)
			if !gridEqual(c.int8.grid, want) || gridEqual(want, stale) {
				t.Fatal("QuantizeInt8 after the write does not quantize the written weights")
			}
		})
	}
}

// gridModel is fuzzModel with every convolution snapped onto its grid.
func gridModel(seed int64) []*Param {
	ps := fuzzModel(seed)
	for _, p := range ps {
		if rows := gridRows(p); rows > 0 {
			p.pin(quantizeGrid(p.W.Data, rows))
		}
	}
	return ps
}

// TestGridPayloadRoundTrip: a dcW6 payload loads into weights and a grid
// that re-encode to it byte for byte, at about a quarter of the dcW1 size,
// and a parameter without a grid cannot be encoded.
func TestGridPayloadRoundTrip(t *testing.T) {
	src := gridModel(1)
	data, err := EncodeWeightsGrid(src)
	if err != nil {
		t.Fatal(err)
	}
	if !IsGridPayload(data) || IsGridPayload(EncodeWeights(src)) {
		t.Fatal("IsGridPayload does not tell dcW6 from dcW1")
	}
	if full := WeightsSize(src); 3*len(data) > full {
		t.Errorf("dcW6 payload is %d bytes, dcW1 %d: want about a quarter", len(data), full)
	}
	dst := fuzzModel(2)
	if err := LoadWeights(bytes.NewReader(data), dst); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(dst, src) {
		t.Fatal("loaded weights differ from the source's")
	}
	again, err := EncodeWeightsGrid(dst)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("loaded grid re-encodes differently (err %v)", err)
	}
	if _, err := EncodeWeightsGrid(fuzzModel(3)); err == nil {
		t.Fatal("encoded a model with no pinned grid")
	}
}

// TestLoadWeightsRejectsHostileGrid: every field a dcW6 payload can lie
// in is refused, and the parameter the lie sits in is left unchanged.
func TestLoadWeightsRejectsHostileGrid(t *testing.T) {
	valid, err := EncodeWeightsGrid(gridModel(1))
	if err != nil {
		t.Fatal(err)
	}
	// The first parameter is the head's 4×3×3×3 weight: its element
	// count, row count, four scales and 108 codes; a bias follows.
	const rowsAt, scalesAt, codesAt, biasAt = 12, 16, 32, 140
	patch := func(off int, b ...byte) []byte {
		p := bytes.Clone(valid)
		copy(p[off:], b)
		return p
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	f32 := func(v float32) []byte { return u32(math.Float32bits(v)) }
	// lies is the parameter each payload lies in (−1: none of them alone),
	// which must be left as it was.
	type hostile struct {
		name, want string
		lies       int
		payload    []byte
	}
	cases := []hostile{
		{"code -128", "−128", 0, patch(codesAt+5, 0x80)},
		{"NaN scale", "scale", 0, patch(scalesAt, f32(float32(math.NaN()))...)},
		{"+Inf scale", "scale", 0, patch(scalesAt+4, f32(float32(math.Inf(1)))...)},
		{"-Inf scale", "scale", 0, patch(scalesAt, f32(float32(math.Inf(-1)))...)},
		{"zero scale", "scale", 0, patch(scalesAt+8, f32(0)...)},
		{"negative scale", "scale", 0, patch(scalesAt, f32(-0.01)...)},
		{"scale whose ×127 overflows", "scale", 0, patch(scalesAt, f32(math.MaxFloat32/64)...)},
		{"param count", "params", 0, patch(4, u32(7)...)},
		{"element count", "size mismatch", 0, patch(8, u32(109)...)},
		{"element count 2³²−1", "size mismatch", 0, patch(8, u32(math.MaxUint32)...)},
		{"row count", "row count mismatch", 0, patch(rowsAt, u32(5)...)},
		{"float32 weights", "row count mismatch", 0, patch(rowsAt, u32(0)...)},
		{"rows on a bias", "row count mismatch", 1, patch(biasAt+4, u32(4)...)},
		{"trailing byte", "trailing", -1, append(bytes.Clone(valid), 0)},
		{"wrong magic", "magic", 0, patch(3, '7')},
	}
	for _, n := range []int{0, 5, 8, 13, scalesAt + 3, codesAt + 50, biasAt + 10, len(valid) - 1} {
		cases = append(cases, hostile{"truncated", "EOF", -1, valid[:n]})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := fuzzModel(2)
			err := LoadWeights(bytes.NewReader(tc.payload), dst)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
			if i := tc.lies; i >= 0 && !bitsEqual(dst[i:i+1], fuzzModel(2)[i:i+1]) {
				t.Errorf("the refused payload changed parameter %d, the one it lied in", i)
			}
		})
	}
}
