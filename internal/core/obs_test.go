package core

import (
	"testing"

	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// TestPrepareAndPlayObservability runs the full pipeline with a live
// Obs bundle and asserts the stable metric surface and the span tree
// an operator would see on /metrics and /debug/trace.
func TestPrepareAndPlayObservability(t *testing.T) {
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	o := obs.New()
	cfg := tinyServerConfig()
	cfg.Obs = o
	p, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	pl := NewPlayer(p)
	pl.Obs = o
	r, err := pl.Play()
	if err != nil {
		t.Fatalf("Play: %v", err)
	}

	snap := o.Metrics.Snapshot()
	if got := snap.Counters["prepare_runs_total"]; got != 1 {
		t.Errorf("prepare_runs_total = %d, want 1", got)
	}
	if got := snap.Counters["prepare_segments_total"]; got != int64(len(p.Segments)) {
		t.Errorf("prepare_segments_total = %d, want %d", got, len(p.Segments))
	}
	if got := snap.Counters["prepare_clusters_total"]; got != int64(p.K) {
		t.Errorf("prepare_clusters_total = %d, want %d", got, p.K)
	}
	if got := snap.Counters["train_samples_total"]; got != int64(len(p.Segments)) {
		// Every segment's I-frame pair feeds exactly one cluster model.
		t.Errorf("train_samples_total = %d, want %d", got, len(p.Segments))
	}
	if snap.Counters["train_steps_total"] <= 0 {
		t.Error("train_steps_total not recorded")
	}
	if got := snap.Counters["cache_hits_total"]; got != int64(r.CacheHits) {
		t.Errorf("cache_hits_total = %d, PlayResult has %d", got, r.CacheHits)
	}
	if got := snap.Counters["cache_misses_total"]; got != int64(r.CacheMisses) {
		t.Errorf("cache_misses_total = %d, PlayResult has %d", got, r.CacheMisses)
	}
	if got := snap.Counters["model_bytes_total"]; got != int64(r.ModelBytes) {
		t.Errorf("model_bytes_total = %d, PlayResult has %d", got, r.ModelBytes)
	}
	if snap.Counters["codec_frames_decoded_total"] <= 0 {
		t.Error("codec_frames_decoded_total not recorded")
	}
	if h := snap.Histograms["codec_enhance_seconds"]; h.Count != int64(r.Decode.Enhanced) {
		t.Errorf("codec_enhance_seconds count = %d, want %d enhanced frames", h.Count, r.Decode.Enhanced)
	}

	traces := o.Trace.Traces()
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want prepare + play", len(traces))
	}
	prep := traces[0]
	if prep.Name != "prepare" || prep.InFlight {
		t.Fatalf("first trace = %+v", prep)
	}
	stages := map[string]bool{}
	for _, c := range prep.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"split", "encode", "decode_low", "vae_features", "kmeans_silhouette", "train_micro_models", "manifest"} {
		if !stages[want] {
			t.Errorf("prepare trace missing stage %q (have %v)", want, stages)
		}
	}
	var clusters int
	for _, c := range prep.Children {
		if c.Name == "train_micro_models" {
			clusters = len(c.Children)
		}
	}
	if clusters != len(p.Models) {
		t.Errorf("train span has %d cluster children, want %d", clusters, len(p.Models))
	}
	play := traces[1]
	if play.Name != "play" || len(play.Children) != len(p.Manifest.Segments) {
		t.Fatalf("play trace has %d children, want one segment_fetch per segment (%d): %+v",
			len(play.Children), len(p.Manifest.Segments), play)
	}
	for _, c := range play.Children {
		if c.Name != "segment_fetch" {
			t.Errorf("play child %q, want segment_fetch", c.Name)
		}
	}
}

// TestPrepareNopObsUnchanged guards the no-op contract at the pipeline
// level: a nil Obs must produce byte-identical artifacts to the seed
// behaviour (the instrumentation may not perturb seeding or results).
func TestPrepareNopObsUnchanged(t *testing.T) {
	clip := testClip(t, 5, 2, 6)
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	plain, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	cfg.Obs = obs.New()
	instr, err := Prepare(frames, clip.FPS, cfg)
	if err != nil {
		t.Fatalf("instrumented Prepare: %v", err)
	}
	if plain.K != instr.K || len(plain.Models) != len(instr.Models) {
		t.Fatalf("instrumentation changed clustering: K %d vs %d", plain.K, instr.K)
	}
	for label, sm := range plain.Models {
		im, ok := instr.Models[label]
		if !ok {
			t.Fatalf("model %d missing from instrumented run", label)
		}
		if string(sm.Bytes) != string(im.Bytes) {
			t.Errorf("model %d weights differ between nop and instrumented runs", label)
		}
	}
}

var benchSink *Prepared

// BenchmarkObsOverhead compares Prepare on a tiny clip with
// observability disabled (nil Obs — the seed configuration) against a
// fully instrumented run. The no-op path adds zero allocations per
// event (asserted in internal/obs), so the two sub-benchmarks must be
// within noise of each other; the acceptance bar is <5% wall time.
//
//	go test ./internal/core/ -run=NONE -bench=ObsOverhead -benchtime=5x
func BenchmarkObsOverhead(b *testing.B) {
	clip := video.Generate(video.GenConfig{
		W: 64, H: 48, Seed: 3, NumScenes: 2, TotalCues: 4,
		MinFrames: 5, MaxFrames: 7,
	})
	frames := clip.YUVFrames()
	cfg := tinyServerConfig()
	cfg.Train.Steps = 30
	run := func(b *testing.B, o *obs.Obs) {
		c := cfg
		c.Obs = o
		for i := 0; i < b.N; i++ {
			p, err := Prepare(frames, clip.FPS, c)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = p
		}
	}
	b.Run("nop", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) { run(b, obs.New()) })

	// The rolling-window handles sit on the transport and codec hot
	// paths, so their record path must match the lifetime handles'
	// zero-allocation bar (TestWindowedRecordZeroAllocs pins the same
	// invariant as a hard assertion; -benchmem makes it visible here).
	b.Run("windowed_record", func(b *testing.B) {
		o := obs.New()
		wc := o.WindowedCounter("bench_requests_window_total")
		wh := o.WindowedHistogram("bench_rtt_window_seconds")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wc.Inc()
			wh.Observe(0.003)
		}
	})
}
