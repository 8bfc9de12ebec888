package nn_test

import (
	"bytes"
	"context"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
	"dcsr/internal/stream"
)

// payloads serves a model stream's artifacts from memory.
type payloads struct{ backbone, delta, full []byte }

func (p payloads) Fetch(_ context.Context, kind stream.Kind, label int) ([]byte, error) {
	switch {
	case kind == stream.KindModelDelta:
		return p.delta, nil
	case label == 0:
		return p.backbone, nil
	}
	return p.full, nil
}

// TestFusedReconstructionFallsBack shows, on amd64, what a viewer build
// that fused the delta reconstruction's multiply-add would do against an
// origin that rounds the product first: its reconstruction differs in
// some weight, so Assembler's digest check refuses it and the model is
// fetched complete — silently, but for modelstream_fallback_total.
func TestFusedReconstructionFallsBack(t *testing.T) {
	cfg := edsr.Config{Filters: 4, ResBlocks: 1}
	base, err := edsr.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	target, err := edsr.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := nn.EncodeWeightsDelta(base.Params(), target.Params())
	if err != nil {
		t.Fatal(err)
	}
	origin, err := edsr.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.ApplyWeightsDelta(base.Params(), delta, origin.Params()); err != nil {
		t.Fatal(err)
	}
	p := payloads{backbone: nn.EncodeWeights(base.Params()), delta: delta, full: nn.EncodeWeights(origin.Params())}
	man := &stream.Manifest{
		Backbone: &stream.BackboneInfo{Label: 0},
		Models: map[int]stream.ModelInfo{
			0: {Label: 0, Bytes: len(p.backbone), Digest: stream.PayloadDigest(p.backbone)},
			1: {Label: 1, Bytes: len(delta), Delta: true,
				Digest: stream.PayloadDigest(p.full), FullBytes: len(p.full)},
		},
	}
	assemble := func() (stream.Cost, int64) {
		t.Helper()
		o := obs.New()
		a := stream.Assembler{Fetcher: p, Manifest: man, Config: cfg, Backbone: new(stream.Backbone), Obs: o}
		m, _, cost, err := a.Model(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nn.EncodeWeights(m.Params()), p.full) {
			t.Fatal("the viewer armed other weights than the origin's")
		}
		return cost, o.Metrics.Snapshot().Counters["modelstream_fallback_total"]
	}
	if cost, fallbacks := assemble(); fallbacks != 0 || cost.Delta != len(delta) || cost.Full != 0 {
		t.Fatalf("plain-rounding viewer: cost %+v, %d fallbacks; want the delta assembled", cost, fallbacks)
	}
	nn.UseFusedReconstruction(t)
	if cost, fallbacks := assemble(); fallbacks != 1 || cost.Delta != 0 || cost.Full != len(p.full) {
		t.Fatalf("fused viewer: cost %+v, %d fallbacks; want one fallback to the complete model", cost, fallbacks)
	}
}
