package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
)

// Kind names one class of downloadable artifact.
type Kind uint8

// The artifact classes a Fetcher serves.
const (
	KindSegment    Kind = iota // arg: segment index → marshaled codec.Stream
	KindModel                  // arg: model label → complete serialized weights
	KindBackbone               // arg ignored → the shared backbone's weights
	KindModelDelta             // arg: model label → dcW5 delta against the backbone
)

// Fetcher downloads one artifact. It is the only thing the playback
// backends differ in: core.Prepared serves from memory,
// transport.Client.Video(id) over the wire (retrying inside). An error
// means the artifact is unavailable after whatever recovery the backend
// does.
type Fetcher interface {
	Fetch(ctx context.Context, kind Kind, arg int) ([]byte, error)
}

// declared is the manifest-only backend behind NewSession: every model
// artifact arrives instantly as a zero payload of its manifest-declared
// size; segments, whose size the session reads off the manifest, as nil.
type declared struct{ m *Manifest }

func (d declared) Fetch(_ context.Context, kind Kind, arg int) ([]byte, error) {
	mi, ok := d.m.Models[arg]
	switch {
	case kind == KindSegment:
		return nil, nil
	case kind == KindBackbone && d.m.Backbone != nil:
		return make([]byte, d.m.Backbone.Bytes), nil
	case kind == KindModel && ok && mi.Delta:
		return make([]byte, mi.FullBytes), nil
	case ok && (kind == KindModel || mi.Delta):
		return make([]byte, mi.Bytes), nil
	}
	return nil, fmt.Errorf("stream: manifest declares no artifact %d/%d", kind, arg)
}

// LoadModel builds a model of configuration cfg from its complete
// serialized weights: float32 (dcW1), or the int8 grid (dcW6) an
// int8-admitted model ships as, which the model then runs as it stands.
// The payload must be exactly the size cfg serializes to in the format
// its magic names — checked before the model is allocated.
func LoadModel(cfg edsr.Config, data []byte) (*edsr.Model, error) {
	want := cfg.SizeBytes()
	if nn.IsGridPayload(data) {
		want = cfg.GridSizeBytes()
	}
	if int64(len(data)) != want {
		return nil, fmt.Errorf("stream: %d-byte payload for %v, which serializes to %d", len(data), cfg, want)
	}
	m, err := edsr.New(cfg, 0)
	if err != nil {
		return nil, err
	}
	return m, nn.LoadWeights(bytes.NewReader(data), m.Params())
}

// PayloadDigest is the hex SHA-256 manifests use to identify model
// payloads end-to-end (BackboneInfo.Digest, ModelInfo.Digest).
func PayloadDigest(data []byte) string {
	d := sha256.Sum256(data)
	return hex.EncodeToString(d[:])
}

// Cost is the model bytes one Assembler.Model call downloaded and
// verified, by class.
type Cost struct{ Backbone, Delta, Full int }

// Total sums the classes.
func (c Cost) Total() int { return c.Backbone + c.Delta + c.Full }

// Backbone holds one video's verified shared backbone: the payload and
// its deserialized form, the base every delta is applied to. It is safe
// for concurrent use — any number of Assemblers may share one, and the
// backbone is then fetched and deserialized once between them (callers
// arriving during the fetch wait for it rather than starting another).
// The zero value is an empty holder.
type Backbone struct {
	mu     sync.Mutex
	digest string
	data   []byte
	base   *edsr.Model
}

// Assembler turns model labels into ready models over a Fetcher, in the
// model-stream order: a label the manifest ships through the stream — a
// Delta entry, or the backbone's own label — costs the shared backbone
// (once per Backbone holder) plus its dcW5 delta, reconstructed and
// verified against the manifest's full-payload digest; every other label,
// and any label whose assembly fails (modelstream_fallback_total), is
// fetched complete. An Assembler is a cheap value; Manifest and Config
// must already be validated (Manifest.ValidateFor).
type Assembler struct {
	Fetcher  Fetcher
	Manifest *Manifest
	// Config is the architecture models are built as. The zero value
	// builds nothing: payloads are fetched and costed, never deserialized
	// or verified (manifest-only accounting).
	Config   edsr.Config
	Backbone *Backbone
	// Obs records modelstream_backbone_fetch_total,
	// modelstream_delta_bytes_total and modelstream_fallback_total.
	Obs *obs.Obs
	Log *obs.Logger
}

// build deserializes one model: payload is a dcW5 delta onto base when
// base is non-nil — the result must then hash to digest, the manifest's
// full-payload digest — and the complete weights otherwise. An
// accounting-only Assembler builds nothing.
func (a *Assembler) build(payload []byte, base *edsr.Model, digest string) (*edsr.Model, error) {
	if a.Config == (edsr.Config{}) {
		return nil, nil
	}
	if base == nil {
		return LoadModel(a.Config, payload)
	}
	m, err := edsr.New(a.Config, 0)
	if err != nil {
		return nil, err
	}
	if err := nn.ApplyWeightsDelta(base.Params(), payload, m.Params()); err != nil {
		return nil, err
	}
	if got := PayloadDigest(nn.EncodeWeights(m.Params())); got != digest {
		return nil, fmt.Errorf("assembled digest %s, manifest says %s", got, digest)
	}
	return m, nil
}

// Model downloads (or assembles) model label. It returns the model (nil
// from an accounting-only Assembler), the payload a byte-budgeted cache
// should hold for it — the wire download unit: the delta, the backbone
// payload for the backbone's own label, the complete weights otherwise —
// and what the call downloaded.
func (a *Assembler) Model(ctx context.Context, label int) (*edsr.Model, []byte, Cost, error) {
	mi, ok := a.Manifest.Models[label]
	if !ok {
		return nil, nil, Cost{}, fmt.Errorf("stream: model %d is not in the manifest", label)
	}
	var cost Cost
	if bb := a.Manifest.Backbone; bb != nil && (mi.Delta || label == bb.Label) {
		m, payload, c, err := a.assemble(ctx, label, mi)
		if err == nil || ctx.Err() != nil {
			return m, payload, c, err
		}
		cost = c // a backbone this call paid for stays paid
		a.Obs.Counter("modelstream_fallback_total").Inc()
		a.Log.Warn("stream: model assembly failed; falling back to full fetch", "model", label, "err", err)
	}
	data, err := a.Fetcher.Fetch(ctx, KindModel, label)
	if err != nil {
		return nil, nil, cost, err
	}
	m, err := a.build(data, nil, "")
	if err != nil {
		return nil, nil, cost, fmt.Errorf("stream: model %d: %w", label, err)
	}
	cost.Full = len(data)
	return m, data, cost, nil
}

// backbone returns the shared backbone, fetching and verifying it if the
// holder does not have it yet; paid is the bytes this call downloaded.
func (a *Assembler) backbone(ctx context.Context) (data []byte, base *edsr.Model, paid int, err error) {
	info, b := a.Manifest.Backbone, a.Backbone
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.data != nil && b.digest == info.Digest {
		return b.data, b.base, 0, nil
	}
	if data, err = a.Fetcher.Fetch(ctx, KindBackbone, 0); err != nil {
		return nil, nil, 0, err
	}
	if got := PayloadDigest(data); a.Config != (edsr.Config{}) && got != info.Digest {
		return nil, nil, 0, fmt.Errorf("stream: backbone digest %s, manifest says %s", got, info.Digest)
	}
	if base, err = a.build(data, nil, ""); err != nil {
		return nil, nil, 0, fmt.Errorf("stream: backbone weights: %w", err)
	}
	b.digest, b.data, b.base = info.Digest, data, base
	a.Obs.Counter("modelstream_backbone_fetch_total").Inc()
	a.Log.Debug("stream: backbone fetched", "bytes", len(data))
	return data, base, len(data), nil
}

// assemble serves a model-stream label: the backbone's own label is the
// backbone payload itself and costs nothing beyond it; a delta label
// downloads its dcW5 payload and reconstructs, verified end to end before
// the model is handed out. On failure the returned Cost still carries a
// backbone this call paid for.
func (a *Assembler) assemble(ctx context.Context, label int, mi ModelInfo) (*edsr.Model, []byte, Cost, error) {
	payload, base, paid, err := a.backbone(ctx)
	cost := Cost{Backbone: paid}
	if err != nil {
		return nil, nil, cost, err
	}
	delta := label != a.Manifest.Backbone.Label
	if !delta {
		base = nil // the backbone payload is the complete model
	} else if payload, err = a.Fetcher.Fetch(ctx, KindModelDelta, label); err != nil {
		return nil, nil, cost, err
	}
	m, err := a.build(payload, base, mi.Digest)
	if err != nil {
		return nil, nil, cost, fmt.Errorf("stream: model %d: %w", label, err)
	}
	if delta {
		cost.Delta = len(payload)
		a.Obs.Counter("modelstream_delta_bytes_total").Add(int64(cost.Delta))
	}
	return m, payload, cost, nil
}
