package nn

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// The weight-codec golden table pins every byte the three weight
// formats write: the SHA-256 and length of an EncodeWeights (dcW1)
// payload, of an EncodeWeightsGrid (dcW6) payload on a snapped layout,
// and of an EncodeWeightsDelta (dcW5) payload in each of its modes — a
// dense one between unrelated models and a sparse one against a
// near-duplicate — with the WeightsDigest of what ApplyWeightsDelta
// reconstructs from each. It was generated before the dcW5 codec moved
// onto the dcW1/dcW6 field helpers and must never be regenerated to make
// a change pass: a mismatch means a payload or a reconstructed weight
// moved, and with it every published model and every viewer's digest
// check.

// codecGoldenModel is a convolution, a dense layer and a second
// convolution with random biases, so every parameter shape a model
// ships (4-D kernels, 2-D dense rows, 1-D biases) is in the payload,
// and a planted negative zero that only a bit-exact path keeps.
func codecGoldenModel(seed int64) []*Param {
	rng := rand.New(rand.NewSource(seed))
	var ps []*Param
	for _, l := range []Layer{
		NewConv2D(3, 4, 3, 1, 1).InitHe(rng),
		NewDense(6, 5).InitXavier(rng),
		NewConv2D(4, 2, 1, 1, 0).InitHe(rng),
	} {
		ps = append(ps, l.Params()...)
	}
	for _, p := range ps {
		if len(p.W.Shape) == 1 {
			for i := range p.W.Data {
				p.W.Data[i] = float32(rng.NormFloat64() * 0.1)
			}
		}
	}
	ps[0].W.Data[1] = float32(math.Copysign(0, -1))
	return ps
}

func codecGoldenRow(name string, payload []byte) string {
	return fmt.Sprintf("%s bytes=%d sha256=%x", name, len(payload), sha256.Sum256(payload))
}

// codecGoldenRows computes the table, one "name fields" row per payload
// and reconstruction.
func codecGoldenRows(t *testing.T) []string {
	rows := []string{codecGoldenRow("dcW1", EncodeWeights(codecGoldenModel(1)))}

	a, b := snappedConv(2), snappedConv(3)
	grid, err := EncodeWeightsGrid(append(a.Params(), b.Params()...))
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, codecGoldenRow("dcW6", grid))

	backbone := codecGoldenModel(4)
	near := codecGoldenModel(5)
	if err := CopyWeights(near, backbone); err != nil {
		t.Fatal(err)
	}
	near[0].W.Data[7] += 0.25
	near[2].W.Data[11] -= 0.125
	near[5].W.Data[0] += 1e-3
	for _, c := range []struct {
		name   string
		target []*Param
	}{
		{"dcW5/dense", codecGoldenModel(6)},
		{"dcW5/sparse", near},
	} {
		delta, err := EncodeWeightsDelta(backbone, c.target)
		if err != nil {
			t.Fatal(err)
		}
		dst := codecGoldenModel(7)
		if err := ApplyWeightsDelta(backbone, delta, dst); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, codecGoldenRow(c.name, delta),
			fmt.Sprintf("%s/applied weights=%x", c.name, WeightsDigest(dst)))
	}
	return rows
}

func TestWeightCodecGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/codec_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, row := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, fields, _ := strings.Cut(row, " ")
		want[name] = fields
	}
	rows := codecGoldenRows(t)
	for _, row := range rows {
		name, fields, _ := strings.Cut(row, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the table", name)
		} else if fields != w {
			t.Errorf("%s: got %s, want %s", name, fields, w)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("computed %d rows, the table has %d", len(rows), len(want))
	}
	if t.Failed() {
		t.Logf("computed table:\n%s", strings.Join(rows, "\n"))
	}
}
