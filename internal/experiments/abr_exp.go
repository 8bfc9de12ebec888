package experiments

import (
	"fmt"

	"dcsr/internal/abr"
	"dcsr/internal/core"
	"dcsr/internal/quality"
	"dcsr/internal/splitter"
	"dcsr/internal/stream"
	"dcsr/internal/video"
)

// ABRResult holds the per-policy streaming outcomes of the ABR experiment.
type ABRResult struct {
	QoE      map[string]float64
	Rebuffer map[string]float64
	SeenPSNR map[string]float64
	Bytes    map[string]int
}

// ExperimentABR implements the paper's §4 suggestion that "an ABR
// algorithm can use the decoded and super-resolved quality level as an
// input to trade the network and compute capacity": it builds a real
// multi-QP ladder for one video, measures the actual SR gain dcSR's micro
// models deliver on the lowest rungs, and streams the ladder through a
// constrained two-state bandwidth trace under three policies.
func ExperimentABR(cfg EvalConfig) (Table, *ABRResult) {
	clip := cfg.clip(video.GenreDocumentary)
	frames := clip.YUVFrames()
	segs := splitter.Split(frames, splitter.Config{Threshold: 14, MinLen: 3})

	qps := []int{51, 43, 35}
	ladder, err := abr.BuildLadder(frames, clip.FPS, segs, qps)
	if err != nil {
		panic(err)
	}
	// Project segment payloads to 1080p scale: coded bytes grow linearly
	// with pixel count, while micro-model sizes are resolution-independent
	// (they depend only on n_f × n_RB). Without this projection the
	// eval-scale frames (80×48) make models look enormous next to
	// segments, inverting the economics the paper's setting has.
	byteScale := float64(1920*1080) / float64(cfg.W*cfg.H)
	for li := range ladder.Levels {
		for si := range ladder.Levels[li].SegmentBytes {
			ladder.Levels[li].SegmentBytes[si] = int(float64(ladder.Levels[li].SegmentBytes[si]) * byteScale)
		}
	}

	// Measure the real enhancement gain at the lowest level by running the
	// dcSR pipeline; attenuate for higher levels in proportion to their
	// remaining quality headroom (enhancement recovers less when less was
	// lost).
	prep, err := core.Prepare(frames, clip.FPS, cfg.serverConfig())
	if err != nil {
		panic(err)
	}
	enh, _, _, err := playLocal(prep, stream.DefaultOptions())
	if err != nil {
		panic(err)
	}
	lowOpts := stream.DefaultOptions()
	lowOpts.Enhance = false
	low, _, _, err := playLocal(prep, lowOpts)
	if err != nil {
		panic(err)
	}
	var gain0 float64
	for i := range frames {
		gain0 += quality.PSNRYUV(frames[i], enh[i]) - quality.PSNRYUV(frames[i], low[i])
	}
	gain0 /= float64(len(frames))
	if gain0 < 0 {
		gain0 = 0
	}
	top := ladder.MeanPSNR(len(qps) - 1)
	gains := make([]float64, len(qps))
	for li := range gains {
		headroom := top - ladder.MeanPSNR(li)
		if maxHead := top - ladder.MeanPSNR(0); maxHead > 0 {
			gains[li] = gain0 * headroom / maxHead
		}
	}

	// Model labels and sizes from the real manifest.
	segModels := make([]int, len(segs))
	for i, s := range prep.Manifest.Segments {
		segModels[i] = s.ModelLabel
	}
	modelBytes := map[int]int{}
	for l, mi := range prep.Manifest.Models {
		modelBytes[l] = mi.Bytes
	}

	// A two-state link sized around the middle rung.
	mid := ladder.Levels[1].Bitrate(ladder.SegDur) / 8
	trace := abr.MarkovTrace(mid*1.6, mid*0.5, 0.12, 900, cfg.Seed)

	opts := abr.SimOptions{
		SRGain: gains, SegmentModel: segModels, ModelBytes: modelBytes, ComputeOK: true,
	}
	noSR := abr.SimOptions{}

	t := Table{
		Title:  fmt.Sprintf("ABR integration: streaming a %d-level ladder (SR gain at lowest level: %.2f dB)", len(qps), gain0),
		Header: []string{"policy", "seen PSNR (dB)", "rebuffer (s)", "bytes", "QoE"},
	}
	res := &ABRResult{
		QoE: map[string]float64{}, Rebuffer: map[string]float64{},
		SeenPSNR: map[string]float64{}, Bytes: map[string]int{},
	}
	runs := []struct {
		policy abr.Policy
		opts   abr.SimOptions
	}{
		{abr.RateBased{}, noSR},
		{abr.BufferBased{}, noSR},
		{abr.SRAware{}, opts},
	}
	for _, r := range runs {
		sim, err := abr.Simulate(ladder, trace, r.policy, r.opts)
		if err != nil {
			panic(err)
		}
		name := r.policy.Name()
		res.QoE[name] = sim.QoE
		res.Rebuffer[name] = sim.RebufferS
		res.SeenPSNR[name] = sim.MeanPSNR
		res.Bytes[name] = sim.TotalBytes
		t.Add(name, f2(sim.MeanPSNR), f2(sim.RebufferS), fmt.Sprintf("%d", sim.TotalBytes), f2(sim.QoE))
	}
	return t, res
}
