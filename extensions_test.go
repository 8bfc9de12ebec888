package dcsr_test

import (
	"context"
	"net"
	"testing"

	"dcsr"
)

func smallPrepared(t *testing.T) (*dcsr.Prepared, []*dcsr.YUV) {
	t.Helper()
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 64, H: 48, Seed: 91, NumScenes: 2, TotalCues: 4, MinFrames: 5, MaxFrames: 7,
	})
	frames := clip.YUVFrames()
	prep, err := dcsr.Prepare(frames, clip.FPS, dcsr.ServerConfig{
		QP:          51,
		VAE:         dcsr.VAEConfig{ImgSize: 16, LatentDim: 4, BaseCh: 4},
		MicroConfig: dcsr.EDSRConfig{Filters: 4, ResBlocks: 1},
		Train:       dcsr.TrainOptions{Steps: 40, BatchSize: 2, PatchSize: 16},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prep, frames
}

func TestPublicTransportAPI(t *testing.T) {
	prep, frames := smallPrepared(t)
	srv, err := dcsr.NewStreamServer(prep)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	client, conn, err := dcsr.DialStream(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out, stats, err := client.PlayCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(frames) || stats.Enhanced == 0 {
		t.Fatalf("streamed %d frames, %d enhanced", len(out), stats.Enhanced)
	}
}

func TestPublicABRAPI(t *testing.T) {
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 64, H: 48, Seed: 93, NumScenes: 2, TotalCues: 5, MinFrames: 5, MaxFrames: 7,
	})
	frames := clip.YUVFrames()
	segs := dcsr.SplitVideo(frames, dcsr.SplitConfig{Threshold: 14, MinLen: 3})
	ladder, err := dcsr.BuildLadder(frames, clip.FPS, segs, []int{51, 40})
	if err != nil {
		t.Fatal(err)
	}
	trace := dcsr.MarkovTrace(1e5, 2e4, 0.1, 300, 5)
	res, err := dcsr.SimulateABR(ladder, trace, dcsr.PolicyRateBased{}, dcsr.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) != ladder.Segments {
		t.Fatalf("simulated %d segments of %d", len(res.Log), ladder.Segments)
	}
}

func TestPublicArtifactAPI(t *testing.T) {
	prep, _ := smallPrepared(t)
	dir := t.TempDir()
	if err := dcsr.SaveArtifact(prep, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := dcsr.LoadArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K != prep.K {
		t.Fatalf("loaded K=%d, want %d", loaded.K, prep.K)
	}
}
