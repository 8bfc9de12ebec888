package stream

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/video"
)

// noiseFrame is a w×h frame of seeded random pixels.
func noiseFrame(w, h int, seed int64) *video.RGB {
	f := video.NewRGB(w, h)
	rand.New(rand.NewSource(seed)).Read(f.Pix)
	return f
}

// loadPayloads returns the dcW1 and dcW6 payloads of one calibrated,
// snapped model of cfg.
func loadPayloads(tb testing.TB, cfg edsr.Config) (full, grid []byte) {
	tb.Helper()
	m, err := edsr.New(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Calibrate([]*video.RGB{noiseFrame(16, 16, 2)}); err != nil {
		tb.Fatal(err)
	}
	if err := m.SnapInt8(); err != nil {
		tb.Fatal(err)
	}
	if grid, err = nn.EncodeWeightsGrid(m.Params()); err != nil {
		tb.Fatal(err)
	}
	return nn.EncodeWeights(m.Params()), grid
}

// TestLoadModelAllocatesItsWeights: a load costs the weights it decodes
// (and a dcW6 payload its grid) plus one scratch buffer — no gradient
// tensors and no per-parameter copy of the payload, which put a load at
// ≈ 3× the payload.
func TestLoadModelAllocatesItsWeights(t *testing.T) {
	cfg := edsr.ConfigDCSR1
	full, grid := loadPayloads(t, cfg)
	weights := cfg.SizeBytes() + cfg.SizeBytes()/4
	for _, tc := range []struct {
		payload []byte
		limit   int64
	}{{full, weights}, {grid, weights + cfg.GridSizeBytes()}} {
		// The least of a few loads, so a runtime allocation on another
		// goroutine is not charged to the load.
		least := uint64(1 << 62)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := LoadModel(cfg, tc.payload)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range m.Params() {
				if p.Grad != nil {
					t.Fatalf("%.4s: a loaded model carries a gradient for %s", tc.payload, p.Name)
				}
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if int64(least) > tc.limit {
			t.Errorf("%.4s: loading a %d-byte payload allocated %d B, limit %d", tc.payload, len(tc.payload), least, tc.limit)
		}
	}
}

// TestLoadedModelTrainsLikeNew: a model that was loaded (no random
// draws, gradients allocated by the first training step) trains to the
// same bits as a New-built model holding the same weights.
func TestLoadedModelTrainsLikeNew(t *testing.T) {
	cfg := edsr.Config{Filters: 4, ResBlocks: 2}
	src, err := edsr.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(cfg, nn.EncodeWeights(src.Params()))
	if err != nil {
		t.Fatal(err)
	}
	built, err := edsr.New(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.CopyWeights(built.Params(), src.Params()); err != nil {
		t.Fatal(err)
	}
	pairs := []edsr.Pair{
		{Low: noiseFrame(16, 12, 4), High: noiseFrame(16, 12, 5)},
		{Low: noiseFrame(16, 12, 6), High: noiseFrame(16, 12, 7)},
	}
	opts := edsr.TrainOptions{Steps: 4, BatchSize: 2, PatchSize: 8, Seed: 1}
	for _, m := range []*edsr.Model{loaded, built} {
		if _, err := m.Train(pairs, opts); err != nil {
			t.Fatal(err)
		}
	}
	got, want := nn.EncodeWeights(loaded.Params()), nn.EncodeWeights(built.Params())
	if bytes.Equal(want, nn.EncodeWeights(src.Params())) {
		t.Fatal("training moved no weight")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the loaded model trained to other weights than the New-built one")
	}
}

// BenchmarkLoadModel times one ConfigDCSR1 load per payload format: the
// bytes a downloaded model costs before it can run.
func BenchmarkLoadModel(b *testing.B) {
	full, grid := loadPayloads(b, edsr.ConfigDCSR1)
	for _, bc := range []struct {
		name    string
		payload []byte
	}{{"dcW1", full}, {"dcW6", grid}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.payload)))
			b.ReportAllocs()
			for range b.N {
				if _, err := LoadModel(edsr.ConfigDCSR1, bc.payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
