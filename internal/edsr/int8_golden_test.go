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
	"dcsr/internal/video"
)

// The int8 golden table pins the quantized inference path's output bits:
// the SHA-256 of EnhanceInt8's RGB frame and of ForwardInferenceInt8's
// float32 output, for the paper's micro model at Scale 1 and 2 (the
// 16→64 upsampling convolution), a ResScale 0.1 model, a narrow Scale 4
// model whose channel count is off every SIMD width, and an odd frame
// size off every pixel tile — with random non-zero tail weights and
// biases so no output is the identity, and one run calibrated on a
// low-contrast copy of the frame so activations hit the ±127 rails. It
// was generated at the commit before the int8 kernels changed and must
// never be regenerated to make a change pass: a mismatch means a change
// altered an int8 output bit. Every kernel path must reproduce it, which
// the lane tests check by re-running this test on each.
//
// Like the training table it rests on × and + being rounded separately,
// so it is skipped where the build fuses multiply-add.

// int8GoldenRows computes the table: one "name enhance-digest
// forward-digest" row per case and worker count.
func int8GoldenRows(t *testing.T) []string {
	cases := []struct {
		name string
		cfg  Config
		w, h int
		flat bool // calibrate on a low-contrast copy, so the frame saturates
	}{
		{"dcsr1/x1/96x64", ConfigDCSR1, 96, 64, false},
		{"dcsr1/x1/67x45", ConfigDCSR1, 67, 45, false},
		{"dcsr1/x1/67x45/saturated", ConfigDCSR1, 67, 45, true},
		{"dcsr1/x2/67x45", Config{Filters: 16, ResBlocks: 4, Scale: 2}, 67, 45, false},
		{"f16rb2/x1/res0.1/67x45", Config{Filters: 16, ResBlocks: 2, ResScale: 0.1}, 67, 45, false},
		{"f6rb1/x4/37x21", Config{Filters: 6, ResBlocks: 1, Scale: 4}, 37, 21, false},
	}
	var rows []string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		tensor.ShutdownPool()
		for i, tc := range cases {
			m, err := New(tc.cfg, int64(90+i))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(100 + i)))
			for _, c := range m.convs() {
				for j := range c.Bias.W.Data {
					c.Bias.W.Data[j] = float32(rng.NormFloat64() * 0.02)
				}
			}
			for j := range m.tail.Wt.W.Data {
				m.tail.Wt.W.Data[j] = float32(rng.NormFloat64() * 0.05)
			}
			f := genFrame(t, tc.w, tc.h, int64(110+i))
			calib := f
			if tc.flat {
				calib = video.NewRGB(f.W, f.H)
				for j, v := range f.Pix {
					calib.Pix[j] = 96 + v/4
				}
			}
			if err := m.Calibrate([]*video.RGB{calib}); err != nil {
				t.Fatal(err)
			}
			enhanced := sha256.Sum256(m.EnhanceInt8(f).Pix)
			out := m.ForwardInferenceInt8(ToTensor(f))
			bits := make([]byte, 4*len(out.Data))
			for j, v := range out.Data {
				binary.LittleEndian.PutUint32(bits[4*j:], math.Float32bits(v))
			}
			rows = append(rows, fmt.Sprintf("%s/procs%d enhance=%x forward=%x",
				tc.name, procs, enhanced, sha256.Sum256(bits)))
		}
	}
	return rows
}

func TestEnhanceInt8Golden(t *testing.T) {
	if fusesMulAdd() {
		t.Skip("this build fuses multiply-add; the golden table holds for unfused builds only")
	}
	prev := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	want, err := os.ReadFile("testdata/int8_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(int8GoldenRows(t), "\n") + "\n"
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
