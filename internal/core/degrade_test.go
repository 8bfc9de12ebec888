package core

import (
	"context"
	"fmt"
	"testing"

	"dcsr/internal/obs"
	"dcsr/internal/stream"
)

// outage decorates the prepared stream's Fetcher: fail decides, per model
// artifact requested, whether the download errors out.
type outage struct {
	stream.Fetcher
	fail func(label int) error
}

func (o outage) Fetch(ctx context.Context, kind stream.Kind, arg int) ([]byte, error) {
	if kind != stream.KindSegment {
		if err := o.fail(arg); err != nil {
			return nil, err
		}
	}
	return o.Fetcher.Fetch(ctx, kind, arg)
}

// TestPlayerDegradesOnModelFetchFailure drives the in-process player
// through a transient model-fetch outage: the first fetch of every label
// fails, later ones succeed. Playback must complete with the full frame
// count, the degraded segments must decode without SR, and the degraded
// accounting must surface on the session and the obs counters.
func TestPlayerDegradesOnModelFetchFailure(t *testing.T) {
	clip := testClip(t, 3, 3, 8)
	frames := clip.YUVFrames()
	p, err := Prepare(frames, clip.FPS, tinyServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	opts := stream.DefaultOptions()
	opts.Obs = o
	failed := map[int]bool{}
	res, err := playOver(p, outage{p, func(label int) error {
		if !failed[label] {
			failed[label] = true
			return fmt.Errorf("injected outage for label %d", label)
		}
		return nil
	}}, opts)
	if err != nil {
		t.Fatalf("Play aborted despite degradation: %v", err)
	}
	if len(res.Frames) != len(frames) {
		t.Fatalf("played %d frames, want %d", len(res.Frames), len(frames))
	}
	if res.DegradedSegments == 0 {
		t.Fatal("no segments degraded despite failing fetches")
	}
	if res.DegradedSegments != res.Session.DegradedSegments {
		t.Errorf("DegradedSegments=%d != Session=%d",
			res.DegradedSegments, res.Session.DegradedSegments)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["degraded_segments_total"]; got != int64(res.DegradedSegments) {
		t.Errorf("degraded_segments_total = %d, want %d", got, res.DegradedSegments)
	}
	if got := snap.Counters["model_fetch_failures_total"]; got != int64(res.DegradedSegments) {
		t.Errorf("model_fetch_failures_total = %d, want %d", got, res.DegradedSegments)
	}
	// Misses = attempts; downloads = successes; hit+miss still covers
	// exactly the model-needing segments.
	needing := 0
	for _, s := range p.Manifest.Segments {
		if s.ModelLabel >= 0 {
			needing++
		}
	}
	if res.CacheHits+res.CacheMisses != needing {
		t.Errorf("hits %d + misses %d != model-needing segments %d",
			res.CacheHits, res.CacheMisses, needing)
	}
	if res.Session.Downloads != res.CacheMisses-res.DegradedSegments {
		t.Errorf("downloads %d != misses %d - degraded %d",
			res.Session.Downloads, res.CacheMisses, res.DegradedSegments)
	}
}

// TestPlayerTotalOutageMatchesUnenhanced pins the strongest degradation
// property: if every model fetch fails, playback is byte-identical to
// Enhance=false — degradation is exactly "no SR", nothing else.
func TestPlayerTotalOutageMatchesUnenhanced(t *testing.T) {
	clip := testClip(t, 5, 2, 6)
	frames := clip.YUVFrames()
	p, err := Prepare(frames, clip.FPS, tinyServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := playOver(p, outage{p, func(int) error { return fmt.Errorf("total outage") }}, stream.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rawOpts := stream.DefaultOptions()
	rawOpts.Enhance = false
	raw, err := playOver(p, p, rawOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded.Frames) != len(raw.Frames) {
		t.Fatalf("frame count %d vs %d", len(degraded.Frames), len(raw.Frames))
	}
	for i := range raw.Frames {
		d, r := degraded.Frames[i], raw.Frames[i]
		if string(d.Y) != string(r.Y) || string(d.U) != string(r.U) || string(d.V) != string(r.V) {
			t.Fatalf("frame %d differs between total outage and Enhance=false", i)
		}
	}
	needing := 0
	for _, s := range p.Manifest.Segments {
		if s.ModelLabel >= 0 {
			needing++
		}
	}
	if degraded.DegradedSegments != needing {
		t.Errorf("DegradedSegments = %d, want every model-needing segment (%d)",
			degraded.DegradedSegments, needing)
	}
	if degraded.ModelBytes != 0 {
		t.Errorf("ModelBytes = %d during total outage", degraded.ModelBytes)
	}
	if degraded.Decode.Enhanced != 0 {
		t.Errorf("decoder enhanced %d frames during total outage", degraded.Decode.Enhanced)
	}
}
