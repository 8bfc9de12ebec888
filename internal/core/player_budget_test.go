package core

import (
	"testing"

	"dcsr/internal/obs"
	"dcsr/internal/stream"
)

// TestPlayerCacheBudget pins the byte-budgeted client cache end to end:
// an ample budget reproduces the unbounded hit counts exactly, and a
// budget that fits a single model forces evictions and lazy re-downloads
// without changing which frames get enhanced.
func TestPlayerCacheBudget(t *testing.T) {
	clip := testClip(t, 3, 3, 8)
	p, err := Prepare(clip.YUVFrames(), clip.FPS, tinyServerConfig())
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if len(p.Models) < 2 {
		t.Fatalf("need ≥2 models to exercise eviction, got %d", len(p.Models))
	}
	var modelSize int
	for _, sm := range p.Models {
		modelSize = len(sm.Bytes)
		break
	}

	base, err := playDefault(p)
	if err != nil {
		t.Fatalf("baseline Play: %v", err)
	}

	ample := stream.DefaultOptions()
	ample.CacheBudget = int64(modelSize * (len(p.Models) + 1))
	ampleRes, err := playOver(p, p, ample)
	if err != nil {
		t.Fatalf("ample-budget Play: %v", err)
	}
	if ampleRes.CacheHits != base.CacheHits || ampleRes.CacheMisses != base.CacheMisses {
		t.Errorf("ample budget hits/misses = %d/%d, unbounded = %d/%d",
			ampleRes.CacheHits, ampleRes.CacheMisses, base.CacheHits, base.CacheMisses)
	}
	if ampleRes.Evictions != 0 {
		t.Errorf("ample budget evicted %d models", ampleRes.Evictions)
	}

	o := obs.New()
	tight := stream.DefaultOptions()
	tight.Obs = o
	tight.CacheBudget = int64(modelSize) // one resident model at a time
	tightRes, err := playOver(p, p, tight)
	if err != nil {
		t.Fatalf("tight-budget Play: %v", err)
	}
	if tightRes.Evictions == 0 {
		t.Error("tight budget produced no evictions")
	}
	if tightRes.CacheBytes > tight.CacheBudget {
		t.Errorf("cache bytes %d exceed budget %d", tightRes.CacheBytes, tight.CacheBudget)
	}
	// Every eviction forces the label's next reference to re-download.
	if tightRes.CacheMisses <= base.CacheMisses {
		t.Errorf("tight budget misses %d, want > unbounded %d", tightRes.CacheMisses, base.CacheMisses)
	}
	if tightRes.Session.Downloads != tightRes.CacheMisses {
		t.Errorf("downloads %d != misses %d (no fetch failures here)",
			tightRes.Session.Downloads, tightRes.CacheMisses)
	}
	if got := o.Metrics.Snapshot().Counters["modelstore_evictions_total"]; got != int64(tightRes.Evictions) {
		t.Errorf("modelstore_evictions_total = %d, want %d", got, tightRes.Evictions)
	}
	// Eviction only changes download accounting, never what plays:
	// enhanced frame count matches the unbounded baseline.
	if tightRes.Decode.Enhanced != base.Decode.Enhanced {
		t.Errorf("enhanced frames %d != baseline %d", tightRes.Decode.Enhanced, base.Decode.Enhanced)
	}
	if tightRes.DegradedSegments != 0 {
		t.Errorf("degraded segments = %d, want 0", tightRes.DegradedSegments)
	}
}
