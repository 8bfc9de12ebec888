package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// The int8-state table pins, for every int8-admitted model that ships
// complete, the int8 state a viewer arms from the shipped payload — the
// per-output-channel weight codes and scales, and the manifest's
// activation scales — and the int8 output it produces: EnhanceInt8 over
// every I frame of the clip, once on the origin's model and once on the
// model a viewer builds from the payload, plus one ForwardInferenceInt8
// in float bits. It was generated at the commit before such models
// shipped as an int8 grid (they shipped float32 weights the viewer
// re-quantized), so it states that shipping the grid moved no int8 bit.
// Never regenerate it to make a change pass.
//
// Like the training table (internal/edsr/golden_test.go) the bits rest on
// × and + being rounded separately; the test skips where the build fuses.

// Package-level so the compiler cannot fold the probe at build time.
var fmaProbeX, fmaProbeZ float32 = 1 + 0x1p-12, -(1 + 0x1p-11)

// int8StateFixtures are the Prepare runs the table covers: both gates on
// (a backbone plus deltas), the int8 gate alone (every model complete),
// a delta gate nothing passes (the deltas' models ship complete), and
// the paper's 16-filter micro model.
var int8StateFixtures = []struct {
	name    string
	seed    int64
	configs func() ServerConfig
}{
	{"quant+delta", 3, gatedConfig},
	{"quant", 7, func() ServerConfig {
		cfg := tinyServerConfig()
		cfg.Quant = QuantConfig{Enabled: true, MaxPSNRDrop: 100}
		return cfg
	}},
	{"quant+delta-refused", 3, func() ServerConfig {
		cfg := gatedConfig()
		cfg.Delta.MaxPSNRDrop = -100
		return cfg
	}},
	{"dcsr1/quant+delta", 7, func() ServerConfig {
		cfg := gatedConfig()
		cfg.MicroConfig = edsr.ConfigDCSR1
		cfg.Train.Steps = 20
		return cfg
	}},
}

// int8StateRows computes the table: one row per pinned model.
func int8StateRows(t *testing.T) []string {
	var rows []string
	for _, fx := range int8StateFixtures {
		clip := testClip(t, fx.seed, 3, 8)
		p, err := Prepare(clip.YUVFrames(), clip.FPS, fx.configs())
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		labels := make([]int, 0, len(p.Models))
		for label := range p.Models {
			labels = append(labels, label)
		}
		sort.Ints(labels)
		for _, label := range labels {
			sm := p.Models[label]
			if sm.Quant == nil || !sm.Quant.Int8OK || (sm.Delta != nil && sm.Delta.DeltaOK) {
				continue // not admitted, or shipped as a delta
			}
			codes, scales := shippedGrid(t, p.MicroConfig, sm.Bytes)
			viewer, err := stream.LoadModel(p.MicroConfig, sm.Bytes)
			if err != nil {
				t.Fatalf("%s model %d: %v", fx.name, label, err)
			}
			if err := viewer.CalibrateFromScales(p.Manifest.Models[label].ActScales); err != nil {
				t.Fatalf("%s model %d: %v", fx.name, label, err)
			}
			origin, played := enhanceDigest(sm.Model, p.LowIFrames), enhanceDigest(viewer, p.LowIFrames)
			if origin != played {
				t.Errorf("%s model %d: the viewer's int8 frames differ from the origin's", fx.name, label)
			}
			rows = append(rows, fmt.Sprintf("%s/model%d wq=%x wscale=%x act=%x enhance=%x forward=%x",
				fx.name, label, sha256.Sum256(int8Bytes(codes)), floatsDigest(scales),
				floatsDigest(p.Manifest.Models[label].ActScales), played,
				floatsDigest(viewer.ForwardInferenceInt8(edsr.ToTensor(p.LowIFrames[0])).Data)))
		}
	}
	return rows
}

// shippedGrid returns the int8 weight codes and per-output-channel scales
// a viewer arms from a complete payload, in parameter order: a float32
// (dcW1) payload is quantized as Conv2D.QuantizeInt8 does — scale
// max|w|/127 per row (1 for an all-zero row), codes rounded half away
// from zero and clamped to ±127 — and an int8-grid (dcW6) payload is
// read as it stands.
func shippedGrid(t *testing.T, cfg edsr.Config, payload []byte) (codes []int8, scales []float32) {
	t.Helper()
	shape, err := edsr.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := shape.Params()
	if string(payload[:4]) == "dcW6" {
		b := payload[8:]
		u32 := func() int {
			v := binary.LittleEndian.Uint32(b)
			b = b[4:]
			return int(v)
		}
		for range ps {
			n, rows := u32(), u32()
			if rows == 0 {
				b = b[4*n:] // a float32 bias
				continue
			}
			for range rows {
				scales = append(scales, math.Float32frombits(uint32(u32())))
			}
			for _, c := range b[:n] {
				codes = append(codes, int8(c))
			}
			b = b[n:]
		}
		return codes, scales
	}
	m, err := stream.LoadModel(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		if len(p.W.Shape) < 2 {
			continue
		}
		rowLen := p.W.Len() / p.W.Shape[0]
		for r := 0; r < p.W.Shape[0]; r++ {
			row := p.W.Data[r*rowLen : (r+1)*rowLen]
			var maxAbs float32
			for _, v := range row {
				maxAbs = max(maxAbs, float32(math.Abs(float64(v))))
			}
			scale := maxAbs / 127
			if scale == 0 {
				scale = 1
			}
			scales = append(scales, scale)
			for _, v := range row {
				codes = append(codes, int8(max(-127, min(127, math.Round(float64(v/scale))))))
			}
		}
	}
	return codes, scales
}

// enhanceDigest is the SHA-256 of m's int8 enhancement of every frame.
func enhanceDigest(m *edsr.Model, frames []*video.RGB) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range frames {
		h.Write(m.EnhanceInt8(f).Pix) //lint:allow errcheck hash.Hash.Write never returns an error
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func int8Bytes(v []int8) []byte {
	b := make([]byte, len(v))
	for i, c := range v {
		b[i] = byte(c)
	}
	return b
}

func floatsDigest(v []float32) [sha256.Size]byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return sha256.Sum256(b)
}

func TestInt8StateGolden(t *testing.T) {
	if fmaProbeX*fmaProbeX+fmaProbeZ != 0 {
		t.Skip("this build fuses multiply-add; the table holds for unfused builds only")
	}
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	want, err := os.ReadFile("testdata/int8_state_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(int8StateRows(t), "\n") + "\n"
	if got == string(want) {
		return
	}
	wantRows := strings.Split(string(want), "\n")
	for i, row := range strings.Split(got, "\n") {
		if i >= len(wantRows) {
			t.Errorf("row %d: got %q, want no such row", i, row)
		} else if row != wantRows[i] {
			t.Errorf("row %d: got %q, want %q", i, row, wantRows[i])
		}
	}
	t.Logf("computed table:\n%s", got)
}
