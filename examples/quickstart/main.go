// Quickstart: the minimal end-to-end dcSR flow.
//
// Generate a short multi-scene video, run the server-side pipeline
// (split → VAE features → clustering → micro-model training), play it
// back with decoder-integrated enhancement, and print the quality gain.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dcsr"
)

func main() {
	// A ~2.5-minute-feeling clip at tiny evaluation scale: 3 distinct
	// scenes recurring over 8 shots.
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 80, H: 48, Seed: 42, NumScenes: 3, TotalCues: 8,
		MinFrames: 6, MaxFrames: 10,
	})
	frames := clip.YUVFrames()
	fmt.Printf("source: %s\n", clip)

	// Server side: encode a worst-quality stream (QP 51 ≈ CRF 51) and
	// train one micro SR model per cluster of visually similar segments.
	prep, err := dcsr.Prepare(frames, clip.FPS, dcsr.ServerConfig{
		QP:          51,
		MicroConfig: dcsr.EDSRConfig{Filters: 8, ResBlocks: 2},
		Train:       dcsr.TrainOptions{Steps: 300, BatchSize: 2, PatchSize: 16},
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d segments clustered into K=%d micro models (%s each %d bytes)\n",
		len(prep.Segments), prep.K, prep.MicroConfig, prep.Manifest.TotalModelBytes()/max(prep.K, 1))

	// Client side: stream + enhance, then the same session without SR.
	play := func(opts dcsr.SessionOptions) (*dcsr.Session, []*dcsr.YUV) {
		sess, err := dcsr.Open(prep, opts)
		if err != nil {
			log.Fatal(err)
		}
		played, _, err := sess.Play(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return sess, played
	}
	sess, enhanced := play(dcsr.DefaultSessionOptions())
	plain := dcsr.DefaultSessionOptions()
	plain.Enhance = false
	_, low := play(plain)

	var psnrLow, psnrEnh float64
	for i := range frames {
		psnrLow += dcsr.PSNRYUV(frames[i], low[i])
		psnrEnh += dcsr.PSNRYUV(frames[i], enhanced[i])
	}
	n := float64(len(frames))
	fmt.Printf("client: downloaded %d bytes (%d model downloads, %d cache hits)\n",
		sess.TotalBytes(), sess.Downloads, sess.CacheHits)
	fmt.Printf("quality: LOW %.2f dB -> dcSR %.2f dB (%+.2f dB)\n",
		psnrLow/n, psnrEnh/n, (psnrEnh-psnrLow)/n)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
