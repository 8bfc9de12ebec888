package transport_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"dcsr/internal/codec"
	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/faultnet"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/transport"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

// Example_faultTolerantSession streams a prepared clip through a
// throttled, fault-injected connection where every micro-model response is
// dropped (a model-CDN outage while video delivery stays healthy). The
// client retries with backoff, reconnects, then degrades each affected
// segment and keeps playing unenhanced — the session still completes with
// every frame delivered. See docs/OPERATIONS.md for the failure-mode
// catalogue behind this behaviour.
func Example_faultTolerantSession() {
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
		panic(err)
	}
	srv, err := transport.NewServer(prep)
	if err != nil {
		panic(err)
	}

	// Drop every micro-model response; manifest and segments stay healthy.
	inj := faultnet.New(faultnet.Config{
		Decide: func(_ int, frame []byte) faultnet.Kind {
			if op, _, ok := transport.PeekRequest(frame); ok && op == transport.OpModel {
				return faultnet.KindDrop
			}
			return faultnet.KindNone
		},
	})
	var conns []io.Closer
	dial := func() (io.ReadWriter, error) {
		cconn, sconn := net.Pipe()
		go func() { _ = srv.ServeConn(sconn) }()
		conns = append(conns, cconn, sconn)
		// A 1 MiB/s downlink with deterministic fault injection on top.
		return inj.Wrap(transport.NewThrottledConn(cconn, 1<<20)), nil
	}
	conn, _ := dial()
	client := transport.NewClient(conn)
	client.Redial = dial
	client.Retry = transport.RetryPolicy{
		MaxRetries: 1,
		BaseDelay:  time.Millisecond,
		MaxDelay:   2 * time.Millisecond,
		Seed:       1,
	}

	out, stats, err := client.PlayCtx(context.Background(), true)
	for _, c := range conns {
		c.Close()
	}
	fmt.Println("playback completed:", err == nil && len(out) == len(frames))
	fmt.Println("degraded but watchable:", stats.DegradedSegments > 0 && stats.VideoBytes > 0)
	fmt.Println("recovery attempted:", client.Retries > 0 && client.Reconnects > 0)
	// Output:
	// playback completed: true
	// degraded but watchable: true
	// recovery attempted: true
}

// prepareClip runs the server-side pipeline over a tiny generated clip;
// it exists so the multi-video example stays focused on serving.
func prepareClip(seed int64) (*core.Prepared, int) {
	clip := video.Generate(video.GenConfig{
		W: 64, H: 48, Seed: seed, NumScenes: 2, TotalCues: 4, MinFrames: 5, MaxFrames: 7,
	})
	frames := clip.YUVFrames()
	prep, err := core.Prepare(frames, clip.FPS, core.ServerConfig{
		QP:          51,
		Split:       splitter.Config{Threshold: 14, MinLen: 3},
		VAE:         vae.Config{ImgSize: 16, LatentDim: 4, BaseCh: 4},
		VAETrain:    vae.TrainOptions{Epochs: 8, BatchSize: 4},
		MicroConfig: edsr.Config{Filters: 4, ResBlocks: 1},
		Train:       edsr.TrainOptions{Steps: 40, BatchSize: 2, PatchSize: 16},
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	return prep, len(frames)
}

// Example_multiVideoServer hosts two prepared videos behind one server,
// lists the directory, binds to the second video by its content digest,
// and plays it — the fleet-serving flow documented in docs/SERVING.md.
// Printed values are structural, so the example is stable across runs.
func Example_multiVideoServer() {
	prepA, _ := prepareClip(23)
	prepB, framesB := prepareClip(31)

	srv := transport.NewFleetServer()
	srv.Admission = transport.AdmissionConfig{MaxInflight: 64} // shed, don't queue, past 64 concurrent requests
	digestA, err := srv.Register(prepA)
	if err != nil {
		panic(err)
	}
	digestB, err := srv.Register(prepB)
	if err != nil {
		panic(err)
	}

	cconn, sconn := net.Pipe()
	go func() { _ = srv.ServeConn(sconn) }()
	defer cconn.Close()
	defer sconn.Close()
	client := transport.NewClient(cconn)

	dir, err := client.VideosCtx(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("videos hosted:", len(dir.Videos))
	fmt.Println("distinct digests:", digestA != digestB)

	// Bind to the second video by digest and play it through the engine.
	ctx := context.Background()
	v, err := client.VideoByDigest(ctx, digestB)
	if err != nil {
		panic(err)
	}
	wm, err := v.Manifest(ctx)
	if err != nil {
		panic(err)
	}
	sess, err := stream.Open(wm.Manifest(), wm.MicroConfig, v, stream.Options{
		Enhance: true, Int8: true, CacheBudget: -1, Propagation: codec.PropagateDelta,
	})
	if err != nil {
		panic(err)
	}
	out, _, err := sess.Play(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println("selected video played:", len(out) == framesB)
	fmt.Println("models fetched:", sess.Downloads > 0)
	// Output:
	// videos hosted: 2
	// distinct digests: true
	// selected video played: true
	// models fetched: true
}
