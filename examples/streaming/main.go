// Streaming: a segment-by-segment dcSR session over a long video with
// heavy scene recurrence — the paper's Fig 7 walk-through at scale.
//
// The example shows Algorithm 1 in action: each segment's micro model is
// fetched only on cache miss, and the event log prints which segments hit
// the cache. It then compares the session bytes against NAS/NEMO-style
// single-big-model delivery (the paper's Fig 10 scenario).
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"dcsr"
)

func main() {
	// A long clip where 4 scenes recur over 18 shots — like a sitcom
	// cutting between a few sets.
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 80, H: 48, Seed: 11, NumScenes: 4, TotalCues: 18,
		MinFrames: 5, MaxFrames: 9,
	})
	frames := clip.YUVFrames()
	fmt.Printf("source: %s\n\n", clip)

	prep, err := dcsr.Prepare(frames, clip.FPS, dcsr.ServerConfig{
		QP:          51,
		MicroConfig: dcsr.EDSRConfig{Filters: 8, ResBlocks: 2},
		Train:       dcsr.TrainOptions{Steps: 200, BatchSize: 2, PatchSize: 16},
		Seed:        3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared: %d segments, K=%d micro models\n\n", len(prep.Segments), prep.K)

	// Walk the session segment by segment (paper Fig 7).
	sess, err := dcsr.NewSession(prep.Manifest, -1) // unbounded model cache
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("segment  model  action")
	for _, seg := range prep.Manifest.Segments {
		ev := sess.Step(seg)
		action := "cache hit"
		if ev.ModelDownloaded {
			action = fmt.Sprintf("download model %d (%d B)", ev.ModelLabel, ev.ModelBytes)
		}
		fmt.Printf("%7d  %5d  %s\n", ev.Segment, ev.ModelLabel, action)
	}
	fmt.Printf("\nwith caching:    video %6d B + models %6d B = %6d B (%d downloads, %d hits)\n",
		sess.VideoBytes, sess.ModelBytes, sess.TotalBytes(), sess.Downloads, sess.CacheHits)

	// Without caching (ablation of paper §3.2.2).
	noCache, err := dcsr.NewSession(prep.Manifest, 0) // a zero budget caches nothing
	if err != nil {
		log.Fatal(err)
	}
	noCache.Run()
	fmt.Printf("without caching: video %6d B + models %6d B = %6d B\n",
		noCache.VideoBytes, noCache.ModelBytes, noCache.TotalBytes())

	// NAS/NEMO-style delivery: one big model up front.
	big, err := dcsr.NewEDSR(dcsr.EDSRConfig{Filters: 16, ResBlocks: 4}, 0)
	if err != nil {
		log.Fatal(err)
	}
	nasBytes := prep.Manifest.TotalVideoBytes() + big.SizeBytes()
	fmt.Printf("NAS/NEMO-style:  video %6d B + 1 big model %6d B = %6d B\n",
		prep.Manifest.TotalVideoBytes(), big.SizeBytes(), nasBytes)
	fmt.Printf("\ndcSR saving vs NAS: %.0f%%\n", (1-float64(sess.TotalBytes())/float64(nasBytes))*100)
}
