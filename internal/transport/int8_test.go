package transport

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// int8Fixture prepares a clip with the quantize_int8 stage forced to
// admit every cluster (unbounded PSNR drop), so the manifest advertises
// int8 models with activation scales.
var int8Fixture *core.Prepared

func getInt8Fixture(t testing.TB) *core.Prepared {
	t.Helper()
	if int8Fixture == nil {
		clip := video.Generate(video.GenConfig{
			W: 80, H: 48, Seed: 23, NumScenes: 3, TotalCues: 6, MinFrames: 5, MaxFrames: 8,
		})
		prep, err := core.Prepare(clip.YUVFrames(), clip.FPS, core.ServerConfig{
			QP:          51,
			Split:       splitter.Config{Threshold: 14, MinLen: 3},
			VAE:         vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4},
			VAETrain:    vae.TrainOptions{Epochs: 10, BatchSize: 4},
			MicroConfig: edsr.Config{Filters: 4, ResBlocks: 1},
			Train:       edsr.TrainOptions{Steps: 60, BatchSize: 2, PatchSize: 16},
			Quant:       core.QuantConfig{Enabled: true, MaxPSNRDrop: 100},
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		int8Fixture = prep
	}
	return int8Fixture
}

// playMux plays srv's default video through the playback engine over the
// multiplexed backend (MuxClient.Video) and summarizes the session the
// way PlayCtx does.
func playMux(t *testing.T, srv *Server, noInt8 bool) ([]*video.YUV, *PlayStats) {
	t.Helper()
	dial, conns := muxDialer(srv)
	mc, err := DialMux(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		mc.Close()
		for _, c := range *conns {
			c.Close()
		}
	}()
	wm := mc.Manifest()
	sess, err := stream.Open(wm.Manifest(), wm.MicroConfig, mc.Video(0), stream.Options{
		Enhance: true, Int8: !noInt8, CacheBudget: -1, Propagation: codec.PropagateDelta,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, dec, err := sess.Play(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return out, &PlayStats{Accounting: sess.Accounting, DecodeStats: dec,
		Segments: len(sess.Events), ModelDownloads: sess.Downloads}
}

// playLocal plays prep in process (core.Player), summarized as PlayStats
// so the three backends compare field for field.
func playLocal(t *testing.T, prep *core.Prepared, noInt8 bool) ([]*video.YUV, *PlayStats) {
	t.Helper()
	pl := core.NewPlayer(prep)
	pl.Int8 = !noInt8
	res, err := pl.Play()
	if err != nil {
		t.Fatal(err)
	}
	return res.Frames, &PlayStats{Accounting: res.Accounting, DecodeStats: res.Decode,
		Segments: len(res.Events), ModelDownloads: res.Downloads}
}

// wireBackends are the two wire playback backends; with playLocal they
// are the rows of the backend-equivalence tests.
var wireBackends = []struct {
	name string
	play func(*testing.T, *Server, bool) ([]*video.YUV, *PlayStats)
}{{"sequential", playServer}, {"mux", playMux}}

func framesEqual(a, b []*video.YUV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Y, b[i].Y) || !bytes.Equal(a[i].U, b[i].U) || !bytes.Equal(a[i].V, b[i].V) {
			return false
		}
	}
	return true
}

// TestPlayInt8OverWire pins the end-to-end quantized serving path: the
// manifest carries the gate verdict and activation scales over the wire,
// the client calibrates each downloaded model from them, and the decoded
// pixels — and the whole session summary: bytes by class, hits, misses,
// downloads, degraded — are identical across the three backends (local,
// sequential, mux). The NoInt8 ablation must reproduce the float32 pixels
// instead, again on every backend.
func TestPlayInt8OverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	prep := getInt8Fixture(t)
	for label, mi := range prep.Manifest.Models {
		if !mi.Int8 || len(mi.ActScales) == 0 {
			t.Fatalf("model %d: manifest entry not int8-armed: %+v", label, mi)
		}
	}
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	ref, refStats := playLocal(t, prep, false)
	refF, refStatsF := playLocal(t, prep, true)
	for _, b := range wireBackends {
		out, stats := b.play(t, srv, false)
		if stats.Enhanced == 0 || stats.EnhancedInt8 != stats.Enhanced {
			t.Fatalf("%s: int8 playback enhanced %d frames, %d on int8; want all on int8",
				b.name, stats.Enhanced, stats.EnhancedInt8)
		}
		if !framesEqual(out, ref) {
			t.Fatalf("%s: wire int8 playback differs from origin-local int8 playback", b.name)
		}
		if !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("%s: session summary %+v, origin-local %+v", b.name, stats, refStats)
		}

		outF, statsF := b.play(t, srv, true)
		if statsF.EnhancedInt8 != 0 {
			t.Fatalf("%s: NoInt8 client served %d frames on int8", b.name, statsF.EnhancedInt8)
		}
		if statsF.Enhanced != stats.Enhanced {
			t.Fatalf("%s: NoInt8 enhanced %d frames, int8 run %d", b.name, statsF.Enhanced, stats.Enhanced)
		}
		if !framesEqual(outF, refF) {
			t.Fatalf("%s: wire float32 playback differs from origin-local float32 playback", b.name)
		}
		if !reflect.DeepEqual(statsF, refStatsF) {
			t.Fatalf("%s: float32 session summary %+v, origin-local %+v", b.name, statsF, refStatsF)
		}
		if framesEqual(out, outF) {
			t.Fatalf("%s: int8 and float32 playbacks produced identical pixels; quantization had no effect, test is vacuous", b.name)
		}
	}
}
