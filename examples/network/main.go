// Network: end-to-end dcSR delivery over a real TCP connection with a
// bandwidth-throttled downlink — the closest analog to the paper's
// SR-FFMPEG streaming prototype.
//
// An origin server packages the prepared stream (per-segment sub-streams,
// micro models, manifest) and a client on the other side of a constrained
// link streams it segment by segment, fetching micro models on cache miss
// and enhancing I frames in the decode loop. The printout compares wall
// time and downloaded bytes on two simulated link speeds.
//
//	go run ./examples/network
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"dcsr"
	"dcsr/internal/transport"
)

func main() {
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 80, H: 48, Seed: 33, NumScenes: 3, TotalCues: 8,
		MinFrames: 5, MaxFrames: 8,
	})
	frames := clip.YUVFrames()
	fmt.Printf("source: %s\n", clip)

	prep, err := dcsr.Prepare(frames, clip.FPS, dcsr.ServerConfig{
		QP:          51,
		MicroConfig: dcsr.EDSRConfig{Filters: 8, ResBlocks: 2},
		Train:       dcsr.TrainOptions{Steps: 200, BatchSize: 2, PatchSize: 16},
		Seed:        9,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv, err := transport.NewServer(prep)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("origin: %v", err)
		}
	}()
	defer func() {
		if err := srv.Close(); err != nil {
			log.Printf("origin close: %v", err)
		}
	}()
	fmt.Printf("origin serving %d segments + %d micro models on %s\n\n",
		len(prep.Segments), len(prep.Models), ln.Addr())

	for _, link := range []struct {
		name string
		bps  float64
	}{
		{"fast link (1 MiB/s)", 1 << 20},
		{"slow link (64 KiB/s)", 64 << 10},
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		client := transport.NewClient(transport.NewThrottledConn(conn, link.bps))
		start := time.Now()
		out, stats, err := client.PlayCtx(context.Background(), true)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if err := conn.Close(); err != nil {
			log.Printf("conn close: %v", err)
		}

		var psnr float64
		for i := range frames {
			psnr += dcsr.PSNRYUV(frames[i], out[i])
		}
		fmt.Printf("%s:\n", link.name)
		fmt.Printf("  streamed %d frames in %v (video %.1f s)\n",
			len(out), elapsed.Round(time.Millisecond), clip.Duration())
		fmt.Printf("  downloaded %d B (video %d + models %d), %d model downloads, %d cache hits\n",
			client.BytesDown, stats.VideoBytes, stats.ModelBytes, stats.ModelDownloads, stats.CacheHits)
		fmt.Printf("  %d I frames enhanced in-loop, playback PSNR %.2f dB\n\n",
			stats.Enhanced, psnr/float64(len(frames)))
	}
}
