package stream

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/video"
)

// segmentFetcher serves one encoded segment and one model payload.
type segmentFetcher struct{ segment, model []byte }

func (f segmentFetcher) Fetch(_ context.Context, kind Kind, _ int) ([]byte, error) {
	if kind == KindSegment {
		return f.segment, nil
	}
	return f.model, nil
}

// TestSessionRejectsHostileActScales plays one real segment whose
// manifest advertises its model as int8 with one NaN activation scale.
// The scale must be rejected and the model stay on float32 — frames
// identical to a float32 session's, none counted on the int8 path —
// rather than arm a quantized path that enhances garbage.
func TestSessionRejectsHostileActScales(t *testing.T) {
	cfg := edsr.Config{Filters: 4, ResBlocks: 1}
	m, err := edsr.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps := m.Params()
	rng := rand.New(rand.NewSource(4))
	for _, p := range ps[len(ps)-2:] { // the zero-initialised tail: make enhancement visible
		for i := range p.W.Data {
			p.W.Data[i] = float32(rng.NormFloat64() * 0.05)
		}
	}
	payload := nn.EncodeWeights(ps)
	clip := video.Generate(video.GenConfig{W: 32, H: 16, Seed: 5, NumScenes: 1, TotalCues: 1, MinFrames: 3, MaxFrames: 3})
	st, err := codec.Encode(clip.YUVFrames(), nil, 30, codec.EncoderConfig{QP: 30})
	if err != nil {
		t.Fatal(err)
	}
	segment := st.Marshal()
	scales := make([]float32, 5) // head, two block convs, body conv, tail
	for i := range scales {
		scales[i] = 0.5
	}
	scales[1] = float32(math.NaN())
	manifest := &Manifest{
		Segments: []SegmentInfo{{Index: 0, Start: 0, End: clip.Len(), Bytes: len(segment), ModelLabel: 0}},
		Models:   map[int]ModelInfo{0: {Label: 0, Bytes: len(payload), Int8: true, ActScales: scales}},
	}
	play := func(int8 bool) ([]*video.YUV, codec.DecodeStats) {
		s, err := Open(manifest, cfg, segmentFetcher{segment, payload}, Options{Enhance: true, Int8: int8, CacheBudget: -1})
		if err != nil {
			t.Fatal(err)
		}
		frames, stats, err := s.Play(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return frames, stats
	}
	want, wantStats := play(false)
	got, stats := play(true)
	if wantStats.Enhanced == 0 {
		t.Fatal("the float32 session enhanced no frame; the test is vacuous")
	}
	if stats.EnhancedInt8 != 0 || stats.Enhanced != wantStats.Enhanced {
		t.Fatalf("NaN scale: %d frames enhanced, %d on int8; want %d, none on int8", stats.Enhanced, stats.EnhancedInt8, wantStats.Enhanced)
	}
	for i := range want {
		if !bytes.Equal(got[i].Y, want[i].Y) || !bytes.Equal(got[i].U, want[i].U) || !bytes.Equal(got[i].V, want[i].V) {
			t.Fatalf("frame %d differs from the float32 session's", i)
		}
	}
}
