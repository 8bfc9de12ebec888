package edsr

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"dcsr/internal/tensor"
	"dcsr/internal/video"
)

// The YUV golden table pins the in-loop entry points' output bits: the
// SHA-256 of the Y, U and V planes EnhanceYUV and EnhanceYUVInt8 return,
// for two Scale-1 models (the paper's micro model and a ResScale 0.1
// one), on frames 480×272, 38×22 (an odd chroma height), 34×2, 34×4 and
// 34×6 (fewer rows than the model's receptive field), on one and three
// workers — with random biases and tail weights so no output is the
// identity, and the int8 path calibrated on the frame itself. A 4:2:0
// frame has even dimensions (video.NewYUV and RGB.ToYUV refuse odd
// ones), so these are the shapes the entry points accept. It was
// generated before inference became a row pipeline and must never be
// regenerated to make a change pass: a mismatch means a change altered
// an output bit of the decoder's in-loop hook.

// yuvGoldenRows computes the table: one "name f32-digest int8-digest" row
// per case and worker count. Under the race detector the 480×272 frames
// are left out.
func yuvGoldenRows(t *testing.T) []string {
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"dcsr1", ConfigDCSR1},
		{"f8rb2/res0.1", Config{Filters: 8, ResBlocks: 2, ResScale: 0.1}},
	}
	sizes := [][2]int{{480, 272}, {38, 22}, {34, 2}, {34, 4}, {34, 6}}
	var rows []string
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		tensor.ShutdownPool()
		i := 0
		for _, c := range cfgs {
			for _, sz := range sizes {
				i++
				if raceEnabled && sz[0]*sz[1] > 64*64 {
					continue
				}
				m, err := New(c.cfg, int64(500+i))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(600 + i)))
				for _, cv := range m.convs() {
					for j := range cv.Bias.W.Data {
						cv.Bias.W.Data[j] = float32(rng.NormFloat64() * 0.02)
					}
				}
				for j := range m.tail.Wt.W.Data {
					m.tail.Wt.W.Data[j] = float32(rng.NormFloat64() * 0.05)
				}
				rgb := genFrame(t, sz[0], sz[1], int64(700+i))
				if err := m.Calibrate([]*video.RGB{rgb}); err != nil {
					t.Fatal(err)
				}
				f := rgb.ToYUV()
				rows = append(rows, fmt.Sprintf("%s/%dx%d/procs%d f32=%x int8=%x", c.name, sz[0], sz[1], procs,
					yuvDigest(m.EnhanceYUV(f)), yuvDigest(m.EnhanceYUVInt8(f))))
			}
		}
	}
	return rows
}

// yuvDigest hashes a frame's dimensions and its three planes.
func yuvDigest(f *video.YUV) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%dx%d:", f.W, f.H)
	h.Write(f.Y)
	h.Write(f.U)
	h.Write(f.V)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func TestEnhanceYUVGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	data, err := os.ReadFile("testdata/yuv_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, row := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, digests, _ := strings.Cut(row, " ")
		want[name] = digests
	}
	rows := yuvGoldenRows(t)
	for _, row := range rows {
		name, digests, _ := strings.Cut(row, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the table", name)
		} else if digests != w {
			t.Errorf("%s: got %s, want %s", name, digests, w)
		}
	}
	if !raceEnabled && len(rows) != len(want) {
		t.Errorf("computed %d rows, the table has %d", len(rows), len(want))
	}
	if t.Failed() {
		t.Logf("computed table:\n%s", strings.Join(rows, "\n"))
	}
}

// TestEnhanceYUVMatchesRGBPath pins the identity the publisher's int8
// gate rests on when it reuses its calibration outputs as the float32
// play's I-frame enhancement: EnhanceYUV(f) is Enhance(f.ToRGB()).ToYUV()
// byte for byte, and EnhanceYUVInt8(f) is EnhanceInt8(f.ToRGB()).ToYUV(),
// on every kernel lane the host has, on one and three workers, for a
// frame size that is a multiple of 16 and one that is not.
func TestEnhanceYUVMatchesRGBPath(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prev)
		tensor.ShutdownPool()
	}()
	m, err := New(ConfigDCSR1, 41)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, cv := range m.convs() {
		for j := range cv.Bias.W.Data {
			cv.Bias.W.Data[j] = float32(rng.NormFloat64() * 0.02)
		}
	}
	frames := []*video.YUV{genFrame(t, 64, 48, 43).ToYUV(), genFrame(t, 38, 22, 44).ToYUV()}
	if err := m.Calibrate([]*video.RGB{frames[0].ToRGB()}); err != nil {
		t.Fatal(err)
	}
	for _, lane := range kernelLanes {
		if !lane.available() {
			continue
		}
		withLane(lane, func() {
			for _, procs := range []int{1, 3} {
				runtime.GOMAXPROCS(procs)
				tensor.ShutdownPool()
				for _, f := range frames {
					if got, want := yuvDigest(m.EnhanceYUV(f)), yuvDigest(m.Enhance(f.ToRGB()).ToYUV()); got != want {
						t.Errorf("%s/procs%d/%dx%d: EnhanceYUV differs from Enhance through RGB", lane.name, procs, f.W, f.H)
					}
					if got, want := yuvDigest(m.EnhanceYUVInt8(f)), yuvDigest(m.EnhanceInt8(f.ToRGB()).ToYUV()); got != want {
						t.Errorf("%s/procs%d/%dx%d: EnhanceYUVInt8 differs from EnhanceInt8 through RGB", lane.name, procs, f.W, f.H)
					}
				}
			}
		})
	}
}
