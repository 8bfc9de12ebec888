package transport

import (
	"context"
	"io"
	"net"
	"reflect"
	"testing"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/splitter"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// deltaFixture prepares a clip with both the delta_encode and
// quantize_int8 stages forced to admit every cluster, so the manifest
// advertises a backbone, delta-shipped models, and int8 scales at once.
var deltaFixture *core.Prepared

func getDeltaFixture(t testing.TB) *core.Prepared {
	t.Helper()
	if deltaFixture == nil {
		deltaFixture = prepareDelta(t, 23, 1)
	}
	return deltaFixture
}

// prepareDelta runs the delta fixture's pipeline on the clip of the given
// seed.
func prepareDelta(t testing.TB, clipSeed, seed int64) *core.Prepared {
	t.Helper()
	clip := video.Generate(video.GenConfig{
		W: 80, H: 48, Seed: clipSeed, NumScenes: 3, TotalCues: 6, MinFrames: 5, MaxFrames: 8,
	})
	prep, err := core.Prepare(clip.YUVFrames(), clip.FPS, core.ServerConfig{
		QP:          51,
		Split:       splitter.Config{Threshold: 14, MinLen: 3},
		VAE:         vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4},
		VAETrain:    vae.TrainOptions{Epochs: 10, BatchSize: 4},
		MicroConfig: edsr.Config{Filters: 4, ResBlocks: 1},
		Train:       edsr.TrainOptions{Steps: 60, BatchSize: 2, PatchSize: 16},
		Quant:       core.QuantConfig{Enabled: true, MaxPSNRDrop: 100},
		Delta:       core.DeltaConfig{Enabled: true, MaxPSNRDrop: 100},
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prep.Manifest.Backbone == nil {
		t.Fatal("delta fixture produced no backbone; the model-stream tests would be vacuous")
	}
	return prep
}

// TestPlayModelStreamOverWire pins the end-to-end model stream: the
// manifest advertises backbone + deltas, the client fetches the backbone
// once and assembles every delta-shipped model locally, playback is
// pixel-identical to origin playback in both precisions — with the same
// session summary on the local and the wire backend — and the session
// downloads fewer model bytes than the same video served full-model.
func TestPlayModelStreamOverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	prep := getDeltaFixture(t)
	bb := prep.Manifest.Backbone
	deltas := 0
	for label, mi := range prep.Manifest.Models {
		if mi.Delta {
			deltas++
			if mi.BackboneDigest != bb.Digest {
				t.Fatalf("model %d: backbone digest %s, manifest backbone %s", label, mi.BackboneDigest, bb.Digest)
			}
		}
	}
	if deltas == 0 {
		t.Fatal("no delta-shipped models; model-stream test is vacuous")
	}

	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	ctrlSrv, err := NewServer(prep.WithoutDelta())
	if err != nil {
		t.Fatal(err)
	}
	ref, refStats := playLocal(t, prep, false)
	refF, refStatsF := playLocal(t, prep, true)
	out, stats := playWire(t, srv, wireOpts)
	if !framesEqual(out, ref) {
		t.Fatal("model-stream int8 playback differs from origin-local playback")
	}
	if !reflect.DeepEqual(stats, refStats) {
		t.Fatalf("session summary %+v, origin-local %+v", stats, refStats)
	}
	if stats.Enhanced == 0 || stats.EnhancedInt8 != stats.Enhanced {
		t.Fatalf("enhanced %d, int8 %d; model stream must not break the int8 path",
			stats.Enhanced, stats.EnhancedInt8)
	}
	if stats.BackboneBytes != bb.Bytes {
		t.Fatalf("BackboneBytes = %d, manifest backbone is %d bytes (must be fetched exactly once)",
			stats.BackboneBytes, bb.Bytes)
	}
	if stats.DeltaModelBytes == 0 {
		t.Fatal("DeltaModelBytes = 0; no model arrived as a delta")
	}
	if got := stats.BackboneBytes + stats.DeltaModelBytes + stats.FullModelBytes; got != stats.ModelBytes {
		t.Fatalf("byte breakdown %d does not sum to ModelBytes %d", got, stats.ModelBytes)
	}

	// Float32 ablation: assembly must be precision-agnostic.
	outF, statsF := playWire(t, srv, f32Opts)
	if !framesEqual(outF, refF) {
		t.Fatal("model-stream float32 playback differs from origin-local float32 playback")
	}
	if !reflect.DeepEqual(statsF, refStatsF) {
		t.Fatalf("float32 session summary %+v, origin-local %+v", statsF, refStatsF)
	}
	if statsF.DeltaModelBytes != stats.DeltaModelBytes {
		t.Fatalf("float32 run downloaded %d delta bytes, int8 run %d; precision must not change the wire",
			statsF.DeltaModelBytes, stats.DeltaModelBytes)
	}

	// Control arm: the same canonical models served full. Pixels must be
	// identical (the reconstruction IS the canonical model) and the model
	// stream must be strictly cheaper.
	ctrlOut, ctrlStats := playWire(t, ctrlSrv, wireOpts)
	if !framesEqual(out, ctrlOut) {
		t.Fatal("full-model control playback differs from model-stream playback")
	}
	if ctrlStats.BackboneBytes != 0 || ctrlStats.DeltaModelBytes != 0 {
		t.Fatalf("control session used the model stream: backbone %d, delta %d bytes",
			ctrlStats.BackboneBytes, ctrlStats.DeltaModelBytes)
	}
	if ctrlStats.FullModelBytes != ctrlStats.ModelBytes {
		t.Fatalf("control FullModelBytes %d != ModelBytes %d", ctrlStats.FullModelBytes, ctrlStats.ModelBytes)
	}
	if stats.ModelBytes >= ctrlStats.ModelBytes {
		t.Fatalf("model stream downloaded %d model bytes, full-model control %d; stream must be smaller",
			stats.ModelBytes, ctrlStats.ModelBytes)
	}
	t.Logf("model bytes: stream %d (backbone %d + delta %d + full %d) vs full-model %d",
		stats.ModelBytes, stats.BackboneBytes, stats.DeltaModelBytes, stats.FullModelBytes,
		ctrlStats.ModelBytes)
}

// opSniffer records the opcode of every request frame a client writes.
type opSniffer struct {
	io.ReadWriter
	ops []byte
}

func (s *opSniffer) Write(p []byte) (int, error) {
	if op, _, ok := PeekRequest(p); ok {
		s.ops = append(s.ops, op)
	}
	return s.ReadWriter.Write(p)
}

// TestModelStreamInterop pins the full-fetch path from both ends. A
// client against a server whose video has no backbone (prepared without
// delta encoding): every model is fetched complete and the model-stream
// ops never appear on the wire. A client that asks for complete models
// from a model-stream server: OpModel still serves the complete canonical
// weights for every label, including delta-shipped ones.
func TestModelStreamInterop(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	prep := getDeltaFixture(t)

	// New client ← old-style manifest (no backbone).
	oldSrv, err := NewServer(prep.WithoutDelta())
	if err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()
	go func() { _ = oldSrv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()
	sniff := &opSniffer{ReadWriter: cconn}
	client := NewClient(sniff)
	out, stats, err := client.PlayCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range sniff.ops {
		if op == OpBackbone || op == OpModelDelta {
			t.Fatalf("new client sent op %d to a backbone-less server", op)
		}
	}
	if stats.FullModelBytes != stats.ModelBytes || stats.BackboneBytes != 0 {
		t.Fatalf("fallback session breakdown wrong: full %d of %d, backbone %d",
			stats.FullModelBytes, stats.ModelBytes, stats.BackboneBytes)
	}
	ref, err := core.NewPlayer(prep).Play()
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(out, ref.Frames) {
		t.Fatal("new-client/old-server playback differs from origin playback")
	}

	// Old client → new server: OpModel answers every label with the
	// complete canonical weights (what sm.Bytes holds after delta_encode
	// adopted the reconstruction).
	newSrv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	cc2, sc2 := net.Pipe()
	go func() { _ = newSrv.ServeConn(sc2) }()
	defer cc2.Close()
	defer sc2.Close()
	old := NewClient(cc2)
	for label, sm := range prep.Models {
		_, n, err := old.ModelCtx(context.Background(), label, prep.MicroConfig)
		if err != nil {
			t.Fatalf("OpModel for label %d against new server: %v", label, err)
		}
		if n != len(sm.Bytes) {
			t.Fatalf("OpModel label %d served %d bytes, canonical weights are %d", label, n, len(sm.Bytes))
		}
	}
}

// TestModelStreamCorruptionFallsBack pins the assembler's verify-then-arm
// rule on the wire: a corrupted delta (or backbone) payload must never
// reach the decoder — the client falls back to the complete OpModel
// fetch and playback stays pixel-identical to the origin.
func TestModelStreamCorruptionFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	prep := getDeltaFixture(t)
	ref, err := core.NewPlayer(prep).Play()
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one delta payload in the serving buffers.
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for label, d := range srv.videos[0].deltas {
		bad := append([]byte(nil), d...)
		bad[len(bad)/2] ^= 0x5A
		srv.videos[0].deltas[label] = bad
		corrupted = true
		break
	}
	if !corrupted {
		t.Fatal("no delta payload to corrupt")
	}
	// Corrupt the backbone of a second server: every delta label must
	// fall back, playback still pixel-identical.
	srv2, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), srv2.videos[0].backbone...)
	bad[len(bad)/2] ^= 0x5A
	srv2.videos[0].backbone = bad

	out, stats := playWire(t, srv, wireOpts)
	if !framesEqual(out, ref.Frames) {
		t.Fatal("playback with a corrupted delta differs from origin playback")
	}
	if stats.FullModelBytes == 0 {
		t.Fatal("corrupted delta did not trigger a full-model fallback")
	}
	out2, stats2 := playWire(t, srv2, wireOpts)
	if !framesEqual(out2, ref.Frames) {
		t.Fatal("playback with a corrupted backbone differs from origin playback")
	}
	if stats2.DeltaModelBytes != 0 {
		t.Fatalf("client assembled %d delta bytes from a corrupted backbone", stats2.DeltaModelBytes)
	}
	if stats2.FullModelBytes != stats2.ModelBytes {
		t.Fatalf("corrupted-backbone session should be all full fetches: full %d of %d",
			stats2.FullModelBytes, stats2.ModelBytes)
	}
}
