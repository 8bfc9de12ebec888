package edsr

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"dcsr/internal/tensor"
)

// The float32 golden table pins ForwardInference's output bits: the
// SHA-256 of its float32 output for four model shapes (8 and 16
// filters, one to four residual blocks, Scale 1, 2 and 4), ResScale 1
// and 0.1, frames 480×272, 37×23 (off every pixel tile) and 33×1 (a
// single row), on one and three workers — with random biases and tail
// weights so no output is the identity. It was generated before the
// float32 inference convolution changed and must never be regenerated to
// make a change pass: a mismatch means a change altered a float32 output
// bit. Every kernel lane must reproduce it, which the lane tests check
// by re-running this test on each.
//
// Every multiply-add on the path rounds its product, so the table holds
// on every architecture, fused or not (TestFMARatchet keeps it so).

type forwardGoldenCase struct {
	name string
	cfg  Config
	w, h int
}

func forwardGoldenCases() []forwardGoldenCase {
	var cases []forwardGoldenCase
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"f8rb1/x1", Config{Filters: 8, ResBlocks: 1}},
		{"f16rb4/x1", Config{Filters: 16, ResBlocks: 4}},
		{"f16rb2/x2", Config{Filters: 16, ResBlocks: 2, Scale: 2}},
		{"f8rb1/x4", Config{Filters: 8, ResBlocks: 1, Scale: 4}},
	} {
		for _, rs := range []float32{1, 0.1} {
			cfg := c.cfg
			cfg.ResScale = rs
			for _, f := range [][2]int{{480, 272}, {37, 23}, {33, 1}} {
				cases = append(cases, forwardGoldenCase{
					name: fmt.Sprintf("%s/res%g/%dx%d", c.name, rs, f[0], f[1]),
					cfg:  cfg, w: f[0], h: f[1],
				})
			}
		}
	}
	return cases
}

// forwardGoldenRows computes the table: one "name forward-digest" row per
// case and worker count. Under the race detector the 480×272 frames are
// left out (they are minutes there); the rest still must match.
func forwardGoldenRows(t *testing.T) []string {
	var rows []string
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		tensor.ShutdownPool()
		for i, tc := range forwardGoldenCases() {
			if raceEnabled && tc.w*tc.h > 64*64 {
				continue
			}
			m, err := New(tc.cfg, int64(200+i))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(300 + i)))
			for _, c := range m.convs() {
				for j := range c.Bias.W.Data {
					c.Bias.W.Data[j] = float32(rng.NormFloat64() * 0.02)
				}
			}
			for j := range m.tail.Wt.W.Data {
				m.tail.Wt.W.Data[j] = float32(rng.NormFloat64() * 0.05)
			}
			out := m.ForwardInference(ToTensor(genFrame(t, tc.w, tc.h, int64(400+i))))
			bits := make([]byte, 4*len(out.Data))
			for j, v := range out.Data {
				binary.LittleEndian.PutUint32(bits[4*j:], math.Float32bits(v))
			}
			rows = append(rows, fmt.Sprintf("%s/procs%d forward=%x", tc.name, procs, sha256.Sum256(bits)))
		}
	}
	return rows
}

func TestForwardInferenceGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	data, err := os.ReadFile("testdata/forward_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, row := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, digest, _ := strings.Cut(row, " ")
		want[name] = digest
	}
	rows := forwardGoldenRows(t)
	for _, row := range rows {
		name, digest, _ := strings.Cut(row, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the table", name)
		} else if digest != w {
			t.Errorf("%s: got %s, want %s", name, digest, w)
		}
	}
	if !raceEnabled && len(rows) != len(want) {
		t.Errorf("computed %d rows, the table has %d", len(rows), len(want))
	}
	if t.Failed() {
		t.Logf("computed table:\n%s", strings.Join(rows, "\n"))
	}
}
