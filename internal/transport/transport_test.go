package transport

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// preparedFixture builds a small prepared stream once per test binary.
var fixture struct {
	prep   *core.Prepared
	frames []*video.YUV
}

func getFixture(t testing.TB) (*core.Prepared, []*video.YUV) {
	t.Helper()
	if fixture.prep == nil {
		clip := video.Generate(video.GenConfig{
			W: 80, H: 48, Seed: 23, NumScenes: 3, TotalCues: 6, MinFrames: 5, MaxFrames: 8,
		})
		frames := clip.YUVFrames()
		prep, err := core.Prepare(frames, clip.FPS, core.ServerConfig{
			QP:          51,
			Split:       splitter.Config{Threshold: 14, MinLen: 3},
			VAE:         vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4},
			VAETrain:    vae.TrainOptions{Epochs: 10, BatchSize: 4},
			MicroConfig: edsr.Config{Filters: 4, ResBlocks: 1},
			Train:       edsr.TrainOptions{Steps: 60, BatchSize: 2, PatchSize: 16},
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fixture.prep = prep
		fixture.frames = frames
	}
	return fixture.prep, fixture.frames
}

func TestServeOverPipe(t *testing.T) {
	prep, frames := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()

	client := NewClient(cconn)
	wm, err := client.ManifestCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Segments) != len(prep.Segments) {
		t.Fatalf("manifest has %d segments, want %d", len(wm.Segments), len(prep.Segments))
	}
	if wm.MicroConfig != prep.MicroConfig {
		t.Fatalf("manifest micro config %v, want %v", wm.MicroConfig, prep.MicroConfig)
	}
	out, stats, err := client.PlayCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frames) {
		t.Fatalf("streamed %d frames, want %d", len(out), len(frames))
	}
	if stats.ModelDownloads != len(prep.Models) {
		t.Errorf("downloaded %d models, want %d", stats.ModelDownloads, len(prep.Models))
	}
	if stats.ModelDownloads+stats.CacheHits != len(prep.Segments) {
		t.Errorf("downloads %d + hits %d != segments %d", stats.ModelDownloads, stats.CacheHits, len(prep.Segments))
	}
	if stats.Enhanced == 0 {
		t.Error("no I frames enhanced during streamed playback")
	}
	// Streamed+enhanced playback must match in-process playback quality.
	local, _ := playLocal(t, prep, wireOpts)
	for i := range out {
		if quality.PSNRYUV(local[i], out[i]) < 99 { // identical decode paths
			// Allow exact comparison failure to be diagnosed.
			if psnr := quality.PSNRYUV(local[i], out[i]); psnr < 45 {
				t.Fatalf("frame %d: streamed decode differs from local (%.1f dB)", i, psnr)
			}
		}
	}
}

// TestBFrameStreamRefused: Prepare codes no B frames, but a loaded or
// hand-built Prepared may hold a stream with them, and a B frame at a
// segment's end references the next segment's I frame. Every path that
// serves or plays such a stream refuses it with an error.
func TestBFrameStreamRefused(t *testing.T) {
	prep, frames := getFixture(t)
	st, err := codec.Encode(frames, splitter.ForceIFlags(len(frames), prep.Segments), prep.FPS,
		codec.EncoderConfig{QP: 51, BFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.CountType(codec.FrameB) == 0 {
		t.Fatal("the stream has no B frames")
	}
	bp := *prep
	bp.Stream = st
	if _, err := bp.SegmentStream(0); err == nil {
		t.Error("SegmentStream cut a segment out of a stream with B frames")
	}
	if _, err := NewFleetServer().Register(&bp); err == nil {
		t.Error("Register accepted a stream with B frames")
	}
	sess, err := stream.Open(bp.Manifest, bp.MicroConfig, &bp, stream.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Play(context.Background()); err == nil {
		t.Error("local playback played a stream with B frames")
	}
}

func TestServeOverTCP(t *testing.T) {
	prep, frames := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	client := dialTCP(t, ln.Addr().String())
	out, _, err := client.PlayCtx(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frames) {
		t.Fatalf("streamed %d frames, want %d", len(out), len(frames))
	}
	if client.BytesDown <= int64(prep.Manifest.TotalVideoBytes()) {
		t.Errorf("accounted %d bytes down, expected more than raw video %d",
			client.BytesDown, prep.Manifest.TotalVideoBytes())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestConcurrentClients(t *testing.T) {
	prep, frames := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			out, _, err := NewClient(conn).PlayCtx(context.Background(), true)
			if err == nil && len(out) != len(frames) {
				err = io.ErrUnexpectedEOF
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestNotFoundResponses(t *testing.T) {
	prep, _ := getFixture(t)
	srv, err := NewServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()
	client := NewClient(cconn)
	if _, err := client.SegmentCtx(context.Background(), 9999); err == nil {
		t.Error("out-of-range segment accepted")
	}
	if _, _, err := client.ModelCtx(context.Background(), 9999, prep.MicroConfig); err == nil {
		t.Error("unknown model accepted")
	}
	// The connection must remain usable after NotFound responses.
	if _, err := client.ManifestCtx(context.Background()); err != nil {
		t.Fatalf("connection dead after NotFound: %v", err)
	}
}

func TestThrottledConnRate(t *testing.T) {
	// Reading 32 KiB at 64 KiB/s (burst 16 KiB) should request roughly
	// 250 ms of sleep. Use an instrumented sleeper to keep the test fast.
	payload := make([]byte, 32<<10)
	var slept time.Duration
	base := time.Now()
	now := base
	tc := NewThrottledConn(readWriter{strings.NewReader(string(payload))}, 64<<10)
	tc.sleeper = func(d time.Duration) {
		slept += d
		now = now.Add(d) // sleeping lets the bucket refill
	}
	tc.clock = func() time.Time { return now }
	tc.last = base
	buf := make([]byte, 4096)
	for {
		if _, err := tc.Read(buf); err != nil {
			break
		}
	}
	if slept < 150*time.Millisecond || slept > 600*time.Millisecond {
		t.Fatalf("throttle slept %v for 32KiB at 64KiB/s; want ≈250ms", slept)
	}
}

// dialTCP starts a client on a fresh TCP connection to addr, closed when
// the test ends.
func dialTCP(t *testing.T, addr string) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return NewClient(conn)
}

// readWriter adapts a Reader for the ReadWriter-based APIs.
type readWriter struct{ io.Reader }

func (readWriter) Write(p []byte) (int, error) { return len(p), nil }
