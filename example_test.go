package dcsr_test

import (
	"context"
	"fmt"
	"log"

	"dcsr"
)

// Example demonstrates the complete dcSR flow: generate a multi-scene
// video, run the server-side pipeline, and play it back with
// decoder-integrated enhancement. Printed values are structural (counts),
// so the example is stable across runs.
func Example() {
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 64, H: 48, Seed: 7, NumScenes: 2, TotalCues: 4, MinFrames: 5, MaxFrames: 7,
	})
	frames := clip.YUVFrames()

	prep, err := dcsr.Prepare(frames, clip.FPS, dcsr.ServerConfig{
		QP:          51,
		VAE:         dcsr.VAEConfig{ImgSize: 16, LatentDim: 4, BaseCh: 4},
		MicroConfig: dcsr.EDSRConfig{Filters: 4, ResBlocks: 1},
		Train:       dcsr.TrainOptions{Steps: 30, BatchSize: 2, PatchSize: 16},
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := dcsr.Open(prep, dcsr.DefaultSessionOptions())
	if err != nil {
		log.Fatal(err)
	}
	played, stats, err := sess.Play(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segments: %d\n", len(prep.Segments))
	fmt.Printf("frames played: %d\n", len(played))
	fmt.Printf("I frames enhanced: %d\n", stats.Enhanced)
	fmt.Printf("models downloaded: %d, cache hits: %d\n",
		sess.Downloads, sess.CacheHits)
	// Output:
	// segments: 4
	// frames played: 22
	// I frames enhanced: 4
	// models downloaded: 2, cache hits: 2
}

// ExampleSplitVideo shows shot-based variable-length segmentation: the
// generated clip has four cuts, and each detected segment starts exactly
// at a scene change.
func ExampleSplitVideo() {
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 48, H: 48, Seed: 3, NumScenes: 3,
		Cues: []dcsr.Cue{{Scene: 0, Frames: 8}, {Scene: 1, Frames: 6}, {Scene: 2, Frames: 9}, {Scene: 0, Frames: 5}},
	})
	segs := dcsr.SplitVideo(clip.YUVFrames(), dcsr.SplitConfig{Threshold: 6, MinLen: 2})
	for _, s := range segs {
		fmt.Println(s)
	}
	// Output:
	// seg0[0:8)
	// seg1[8:14)
	// seg2[14:23)
	// seg3[23:28)
}

// ExampleEncodeVideo shows the codec substrate directly: higher QP means
// fewer bytes.
func ExampleEncodeVideo() {
	clip := dcsr.GenerateVideo(dcsr.GenConfig{
		W: 32, H: 32, Seed: 5, NumScenes: 1, TotalCues: 1, MinFrames: 6, MaxFrames: 6,
	})
	frames := clip.YUVFrames()
	low, _ := dcsr.EncodeVideo(frames, nil, 30, dcsr.EncoderConfig{QP: 48})
	high, _ := dcsr.EncodeVideo(frames, nil, 30, dcsr.EncoderConfig{QP: 12})
	fmt.Println("QP 48 smaller than QP 12:", low.Bytes() < high.Bytes())
	// Output:
	// QP 48 smaller than QP 12: true
}
