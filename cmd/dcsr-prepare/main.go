// Command dcsr-prepare runs the server-side dcSR pipeline over a synthetic
// video and writes the resulting artifact (coded stream + micro models +
// manifest) to a directory that dcsr-play and dcsr-serve -in consume. The
// directory is the pipeline's checkpoint: ctrl-C and rerun resumes.
//
// Usage:
//
//	dcsr-prepare -out /tmp/video1 -genre sports -w 160 -h 96 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"dcsr/internal/core"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/splitter"
	"dcsr/internal/vae"
	"dcsr/internal/video"
)

func main() {
	out := flag.String("out", "", "output artifact directory (required); an interrupted run resumes from it")
	genreName := flag.String("genre", "news", "content genre: sports|music|documentary|gaming|news|animation")
	w := flag.Int("w", 80, "frame width (multiple of 16)")
	h := flag.Int("h", 48, "frame height (multiple of 16)")
	seed := flag.Int64("seed", 7, "generation seed")
	qp := flag.Int("qp", 51, "encoder QP (CRF-style, 0 best – 51 worst)")
	steps := flag.Int("steps", 400, "micro-model training steps")
	filters := flag.Int("filters", 8, "micro-model filters (n_f)")
	resblocks := flag.Int("resblocks", 2, "micro-model ResBlocks (n_RB)")
	search := flag.Bool("search", false, "run the Appendix A.1 minimum-working-model search instead of -filters/-resblocks")
	int8Flag := flag.Bool("int8", false, "calibrate each cluster model for int8 inference (quantize_int8 stage); clusters failing the quality gate stay float32")
	int8Bound := flag.Float64("int8-psnr-bound", 0, "max PSNR drop (dB) the int8 quality gate tolerates; 0 uses the default 0.5")
	deltaFlag := flag.Bool("delta", false, "delta-encode cluster models against a shared backbone (delta_encode stage); clusters failing the size or quality gate ship complete")
	deltaBound := flag.Float64("delta-psnr-bound", 0, "max PSNR drop (dB) the delta quality gate tolerates; 0 uses the default 0.5")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "dcsr-prepare: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	var genre video.Genre
	found := false
	for _, g := range video.AllGenres() {
		if g.String() == *genreName {
			genre, found = g, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "dcsr-prepare: unknown genre %q\n", *genreName)
		os.Exit(2)
	}

	gc := video.GenreConfig(genre, *w, *h, *seed)
	gc.MinFrames, gc.MaxFrames = 5, 9
	clip := video.Generate(gc)
	fmt.Printf("generated %s\n", clip)

	cfg := core.ServerConfig{
		QP:       *qp,
		Split:    splitter.Config{Threshold: 14, MinLen: 3},
		VAE:      vae.Config{ImgSize: 16, LatentDim: 8, BaseCh: 4},
		VAETrain: vae.TrainOptions{Epochs: 25, BatchSize: 4, Seed: *seed},
		Train:    edsr.TrainOptions{Steps: *steps, BatchSize: 2, PatchSize: 16},
		Seed:     *seed,
	}
	if !*search {
		cfg.MicroConfig = edsr.Config{Filters: *filters, ResBlocks: *resblocks}
	}
	if *int8Flag {
		cfg.Quant = core.QuantConfig{Enabled: true, MaxPSNRDrop: *int8Bound}
	}
	if *deltaFlag {
		cfg.Delta = core.DeltaConfig{Enabled: true, MaxPSNRDrop: *deltaBound}
	}

	// -out is the checkpoint: an interrupted run leaves its completed stages
	// there, a rerun resumes them, and a finished one is the artifact.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg.CheckpointDir, cfg.Obs = *out, obs.New()
	prep, err := core.PrepareCtx(ctx, clip.YUVFrames(), clip.FPS, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcsr-prepare: %v (completed stages are kept in %s; rerun to resume)\n", err, *out)
		os.Exit(1)
	}
	if cfg.Obs.Metrics.Snapshot().Counters["train_steps_total"] == 0 {
		fmt.Printf("resumed from %s: every model restored, no training run\n", *out)
	}
	fmt.Printf("segments: %d, clusters K=%d, micro config %s\n", len(prep.Segments), prep.K, prep.MicroConfig)
	fmt.Printf("stream: %d bytes, models: %d bytes total\n",
		prep.Manifest.TotalVideoBytes(), prep.Manifest.TotalModelBytes())
	for label, sm := range prep.Models {
		fmt.Printf("  model %d: %d bytes, final train MSE %.1f\n", label, len(sm.Bytes), sm.Train.FinalLoss)
		if sm.Quant != nil {
			verdict := "int8"
			if !sm.Quant.Int8OK {
				verdict = "float32 fallback"
			}
			fmt.Printf("    int8 gate: f32 %.2f dB vs int8 %.2f dB -> %s\n",
				sm.Quant.PSNRFloat32, sm.Quant.PSNRInt8, verdict)
		}
		if sm.Delta != nil {
			if sm.Delta.DeltaOK {
				fmt.Printf("    delta gate: %d B delta vs %d B full (backbone %d, %.2f dB vs %.2f dB) -> delta\n",
					sm.Delta.DeltaBytes, sm.Delta.FullBytes, sm.Delta.BackboneLabel,
					sm.Delta.PSNRFull, sm.Delta.PSNRDelta)
			} else {
				fmt.Printf("    delta gate: %d B delta vs %d B full -> full fallback\n",
					sm.Delta.DeltaBytes, sm.Delta.FullBytes)
			}
		}
	}
	if bb := prep.Manifest.Backbone; bb != nil {
		fmt.Printf("model stream: backbone is cluster %d (%d bytes)\n", bb.Label, bb.Bytes)
	}
	fmt.Printf("artifact written to %s\n", *out)
}
