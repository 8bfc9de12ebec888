package transport

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"testing"

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

// wireOpts are PlayCtx's session options; f32Opts keep every model on
// float32 (the precision ablation).
var (
	wireOpts = stream.DefaultOptions()
	f32Opts  = func() stream.Options { o := stream.DefaultOptions(); o.Int8 = false; return o }()
)

// playWire plays srv's default video over a pipe (see playVideo).
func playWire(t *testing.T, srv *Server, opts stream.Options) ([]*video.YUV, *PlayStats) {
	t.Helper()
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()
	return playVideo(t, NewClient(cconn).Video(0), opts)
}

// playVideo plays v through the playback engine with opts and summarizes
// the session the way PlayCtx does.
func playVideo(t *testing.T, v Video, opts stream.Options) ([]*video.YUV, *PlayStats) {
	t.Helper()
	wm, err := v.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return playOver(t, wm.Manifest(), wm.MicroConfig, v, opts)
}

// playLocal plays prep in process — the same engine over the prepared
// stream itself — so the local and the wire backend compare field for
// field.
func playLocal(t *testing.T, prep *core.Prepared, opts stream.Options) ([]*video.YUV, *PlayStats) {
	t.Helper()
	return playOver(t, prep.Manifest, prep.MicroConfig, prep, opts)
}

// playOver plays manifest m through the engine over f with opts and
// summarizes the session the way PlayCtx does.
func playOver(t *testing.T, m *stream.Manifest, cfg edsr.Config, f stream.Fetcher, opts stream.Options) ([]*video.YUV, *PlayStats) {
	t.Helper()
	sess, err := stream.Open(m, cfg, f, opts)
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
// downloads, degraded — are identical on the local and the wire backend.
// The float32 ablation must reproduce the float32 pixels instead, again
// on both.
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
	ref, refStats := playLocal(t, prep, wireOpts)
	refF, refStatsF := playLocal(t, prep, f32Opts)
	out, stats := playWire(t, srv, wireOpts)
	if stats.Enhanced == 0 || stats.EnhancedInt8 != stats.Enhanced {
		t.Fatalf("int8 playback enhanced %d frames, %d on int8; want all on int8",
			stats.Enhanced, stats.EnhancedInt8)
	}
	if !framesEqual(out, ref) {
		t.Fatal("wire int8 playback differs from origin-local int8 playback")
	}
	if !reflect.DeepEqual(stats, refStats) {
		t.Fatalf("session summary %+v, origin-local %+v", stats, refStats)
	}

	outF, statsF := playWire(t, srv, f32Opts)
	if statsF.EnhancedInt8 != 0 {
		t.Fatalf("float32 client served %d frames on int8", statsF.EnhancedInt8)
	}
	if statsF.Enhanced != stats.Enhanced {
		t.Fatalf("float32 run enhanced %d frames, int8 run %d", statsF.Enhanced, stats.Enhanced)
	}
	if !framesEqual(outF, refF) {
		t.Fatal("wire float32 playback differs from origin-local float32 playback")
	}
	if !reflect.DeepEqual(statsF, refStatsF) {
		t.Fatalf("float32 session summary %+v, origin-local %+v", statsF, refStatsF)
	}
	if framesEqual(out, outF) {
		t.Fatal("int8 and float32 playbacks produced identical pixels; quantization had no effect, test is vacuous")
	}
}
