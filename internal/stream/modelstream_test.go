package stream

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/video"
)

// modelStreamManifest builds a Fig-7-style manifest whose models ship as
// a backbone (label 0) plus deltas: segments touch clusters 0,1,1,2,2,2,3.
func modelStreamManifest() *Manifest {
	const bbDigest = "aa11"
	m := &Manifest{
		Backbone: &BackboneInfo{Label: 0, Digest: bbDigest, Bytes: 100},
		Models: map[int]ModelInfo{
			0: {Label: 0, Bytes: 100, Digest: bbDigest},
			1: {Label: 1, Bytes: 25, Delta: true, BackboneDigest: bbDigest, Digest: "bb22", FullBytes: 110},
			2: {Label: 2, Bytes: 30, Delta: true, BackboneDigest: bbDigest, Digest: "cc33", FullBytes: 120},
			3: {Label: 3, Bytes: 130}, // gated out of delta encoding: ships complete
		},
	}
	for i, l := range []int{0, 1, 1, 2, 2, 2, 3} {
		m.Segments = append(m.Segments, SegmentInfo{
			Index: i, Start: i * 10, End: (i + 1) * 10, Bytes: 1000, ModelLabel: l,
		})
	}
	return m
}

func TestManifestValidateModelStream(t *testing.T) {
	if err := modelStreamManifest().Validate(); err != nil {
		t.Fatalf("valid model-stream manifest rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"delta without any backbone", func(m *Manifest) {
			m.Backbone = nil
		}, "no backbone"},
		{"delta against absent backbone digest", func(m *Manifest) {
			mi := m.Models[1]
			mi.BackboneDigest = "deadbeef"
			m.Models[1] = mi
		}, "absent from the manifest"},
		{"delta missing full-payload digest", func(m *Manifest) {
			mi := m.Models[2]
			mi.Digest = ""
			m.Models[2] = mi
		}, "missing full-payload digest"},
		{"backbone label without model entry", func(m *Manifest) {
			m.Backbone.Label = 9
		}, "no model entry"},
		{"backbone without digest", func(m *Manifest) {
			m.Backbone.Digest = ""
		}, "missing digest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := modelStreamManifest()
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken model-stream manifest")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSessionModelStreamAccounting walks the Fig-7 segment order over a
// model-stream manifest: the backbone is paid for exactly once (its own
// label's fetch), deltas cost their delta payloads, the gated-out model
// costs its full payload, and the breakdown sums to ModelBytes.
func TestSessionModelStreamAccounting(t *testing.T) {
	m := modelStreamManifest()
	s, err := NewSession(m, true)
	if err != nil {
		t.Fatal(err)
	}
	total := s.Run()
	// Label 0 (the backbone itself): 100. Deltas 1 and 2: 25 + 30.
	// Full model 3: 130.
	if s.BackboneBytes != 100 || s.DeltaModelBytes != 55 || s.FullModelBytes != 130 {
		t.Fatalf("breakdown backbone=%d delta=%d full=%d, want 100/55/130",
			s.BackboneBytes, s.DeltaModelBytes, s.FullModelBytes)
	}
	if s.ModelBytes != s.BackboneBytes+s.DeltaModelBytes+s.FullModelBytes {
		t.Fatalf("ModelBytes %d does not equal breakdown sum", s.ModelBytes)
	}
	if want := 7*1000 + 285; total != want {
		t.Fatalf("TotalBytes = %d, want %d", total, want)
	}
}

// TestSessionModelStreamBackboneFirstDelta: when the session never plays
// the backbone's own cluster, the first delta fetch pays for the
// backbone; later deltas ride on it.
func TestSessionModelStreamBackboneFirstDelta(t *testing.T) {
	m := modelStreamManifest()
	m.Segments = m.Segments[1:6] // labels 1,1,2,2,2 — no backbone segment
	s, err := NewSession(m, true)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.BackboneBytes != 100 {
		t.Fatalf("BackboneBytes = %d, want 100 (fetched once for the first delta)", s.BackboneBytes)
	}
	if s.DeltaModelBytes != 55 || s.FullModelBytes != 0 {
		t.Fatalf("delta=%d full=%d, want 55/0", s.DeltaModelBytes, s.FullModelBytes)
	}
	if s.Events[0].ModelBytes != 125 {
		t.Fatalf("first delta fetch cost %d, want 125 (backbone + delta)", s.Events[0].ModelBytes)
	}
	if s.Events[2].ModelBytes != 30 {
		t.Fatalf("second cluster cost %d, want 30 (delta only)", s.Events[2].ModelBytes)
	}
	// A backbone-label segment after the fact costs nothing new.
	ev := s.Step(SegmentInfo{Index: 9, Start: 90, End: 100, Bytes: 1000, ModelLabel: 0})
	if ev.ModelBytes != 0 {
		t.Fatalf("backbone label after backbone fetch cost %d, want 0", ev.ModelBytes)
	}
	if s.BackboneBytes != 100 {
		t.Fatalf("BackboneBytes grew to %d on reuse", s.BackboneBytes)
	}
}

// TestCompletePayloadSizes: a complete model arrives float32 (dcW1) or as
// its int8 grid (dcW6); LoadModel takes each at exactly its format's size,
// and ValidateFor admits exactly those two sizes.
func TestCompletePayloadSizes(t *testing.T) {
	cfg := edsr.Config{Filters: 2, ResBlocks: 1}
	m, err := edsr.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate([]*video.RGB{video.NewRGB(8, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := m.SnapInt8(); err != nil {
		t.Fatal(err)
	}
	grid, err := nn.EncodeWeightsGrid(m.Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{nn.EncodeWeights(m.Params()), grid} {
		got, err := LoadModel(cfg, payload)
		if err != nil {
			t.Fatalf("%.4s payload: %v", payload, err)
		}
		if !bytes.Equal(nn.EncodeWeights(got.Params()), nn.EncodeWeights(m.Params())) {
			t.Fatalf("%.4s payload loaded other weights", payload)
		}
		if _, err := LoadModel(cfg, append(bytes.Clone(payload), 0)); err == nil {
			t.Fatalf("%.4s payload one byte long accepted", payload)
		}
	}
	for _, tc := range []struct {
		bytes int64
		ok    bool
	}{{cfg.SizeBytes(), true}, {cfg.GridSizeBytes(), true}, {cfg.GridSizeBytes() + 1, false}} {
		man := &Manifest{Models: map[int]ModelInfo{0: {Label: 0, Bytes: int(tc.bytes)}}}
		if err := man.ValidateFor(cfg); (err == nil) != tc.ok {
			t.Errorf("a %d-byte model entry: ValidateFor returned %v", tc.bytes, err)
		}
	}
}

// mapFetcher serves artifacts from memory and counts backbone fetches.
type mapFetcher struct {
	full, delta map[int][]byte
	backbone    []byte
	bbFetches   int
}

func (f *mapFetcher) Fetch(_ context.Context, kind Kind, arg int) ([]byte, error) {
	switch kind {
	case KindBackbone:
		f.bbFetches++
		return f.backbone, nil
	case KindModel:
		return f.full[arg], nil
	case KindModelDelta:
		return f.delta[arg], nil
	}
	return nil, nil
}

// TestAssemblerSharesBackbone pins the Backbone holder on real weights:
// two delta labels assembled through one holder cost one backbone fetch
// and one backbone deserialization (the same base model serves both), and
// each assembled model is the canonical reconstruction.
func TestAssemblerSharesBackbone(t *testing.T) {
	cfg := edsr.Config{Filters: 2, ResBlocks: 1}
	base, err := edsr.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	bbBytes := nn.EncodeWeights(base.Params())
	f := &mapFetcher{backbone: bbBytes, full: map[int][]byte{0: bbBytes}, delta: map[int][]byte{}}
	m := &Manifest{
		Backbone: &BackboneInfo{Label: 0, Digest: PayloadDigest(bbBytes), Bytes: len(bbBytes)},
		Models:   map[int]ModelInfo{0: {Label: 0, Bytes: len(bbBytes), Digest: PayloadDigest(bbBytes)}},
	}
	for label := 1; label <= 2; label++ {
		target, _ := edsr.New(cfg, int64(label+1))
		delta, err := nn.EncodeWeightsDelta(base.Params(), target.Params())
		if err != nil {
			t.Fatal(err)
		}
		recon, _ := edsr.New(cfg, 0)
		if err := nn.ApplyWeightsDelta(base.Params(), delta, recon.Params()); err != nil {
			t.Fatal(err)
		}
		f.delta[label], f.full[label] = delta, nn.EncodeWeights(recon.Params())
		m.Models[label] = ModelInfo{Label: label, Bytes: len(delta), Delta: true,
			BackboneDigest: m.Backbone.Digest, Digest: PayloadDigest(f.full[label]), FullBytes: len(f.full[label])}
	}
	if err := m.ValidateFor(cfg); err != nil {
		t.Fatal(err)
	}
	a := Assembler{Fetcher: f, Manifest: m, Config: cfg, Backbone: new(Backbone)}
	var bases []*edsr.Model
	for label := 1; label <= 2; label++ {
		model, payload, cost, err := a.Model(context.Background(), label)
		if err != nil {
			t.Fatal(err)
		}
		if got := nn.EncodeWeights(model.Params()); PayloadDigest(got) != m.Models[label].Digest {
			t.Errorf("model %d is not the canonical reconstruction", label)
		}
		wantBackbone := 0
		if label == 1 {
			wantBackbone = len(bbBytes)
		}
		if cost != (Cost{Backbone: wantBackbone, Delta: len(f.delta[label])}) || len(payload) != cost.Delta {
			t.Errorf("model %d cost %+v, cached %d bytes", label, cost, len(payload))
		}
		bases = append(bases, a.Backbone.base)
	}
	if f.bbFetches != 1 || bases[0] == nil || bases[0] != bases[1] {
		t.Errorf("backbone fetched %d times, base models %p / %p; want one fetch, one deserialization",
			f.bbFetches, bases[0], bases[1])
	}
}
