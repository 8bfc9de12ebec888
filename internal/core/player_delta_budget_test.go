package core

import (
	"reflect"
	"slices"
	"testing"

	"dcsr/internal/stream"
)

// budgetWant is what a session over manifest m must report under a cache
// budget when the cache is the plain Algorithm 1 one: a label maps to one
// whole wire payload (the backbone for the backbone's own label, the dcW5
// delta for a delta label, the complete weights otherwise), sized as the
// manifest declares it, least recently used out first.
type budgetWant struct {
	CacheBytes                      int64
	Evictions, Downloads, CacheHits int
	Backbone, Delta, Full           int
	Contents                        []int
}

func wholePayloadBudget(m *stream.Manifest, budget int64) budgetWant {
	var w budgetWant
	var lru []int // least recently used first
	backbonePaid := false
	for _, seg := range m.Segments {
		l := seg.ModelLabel
		if l < 0 {
			continue
		}
		if i := slices.Index(lru, l); i >= 0 {
			lru = append(slices.Delete(lru, i, i+1), l)
			w.CacheHits++
			continue
		}
		w.Downloads++
		mi := m.Models[l]
		if bb := m.Backbone; bb != nil && (mi.Delta || l == bb.Label) {
			if !backbonePaid { // held beside the cache, once per session
				w.Backbone += m.Models[bb.Label].Bytes
				backbonePaid = true
			}
			if l != bb.Label {
				w.Delta += mi.Bytes
			}
		} else {
			w.Full += mi.Bytes
		}
		size := int64(mi.Bytes)
		if budget == 0 || (budget > 0 && size > budget) {
			continue // refused: nothing stored, nothing evicted
		}
		lru = append(lru, l)
		w.CacheBytes += size
		for budget > 0 && w.CacheBytes > budget {
			w.CacheBytes -= int64(m.Models[lru[0]].Bytes)
			lru = lru[1:]
			w.Evictions++
		}
	}
	w.Contents = append(w.Contents, lru...)
	slices.Sort(w.Contents)
	return w
}

// TestPlayerDeltaCacheBudget plays a real backbone+delta stream under
// binding cache budgets and holds every accounting figure to whole-payload
// arithmetic over the manifest's wire sizes: the cache is a label → payload
// LRU and nothing finer, and a budget changes what is downloaded, never a
// pixel.
func TestPlayerDeltaCacheBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the pipeline; skipped in short mode")
	}
	clip := testClip(t, 3, 3, 8)
	cfg := tinyServerConfig()
	cfg.Delta = DeltaConfig{Enabled: true, MaxPSNRDrop: 100}
	p, err := Prepare(clip.YUVFrames(), clip.FPS, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	man := p.Manifest
	if man.Backbone == nil {
		t.Fatal("manifest has no backbone")
	}
	backbone := int64(man.Models[man.Backbone.Label].Bytes)
	smallest := int64(-1)
	for _, mi := range man.Models {
		if mi.Delta && (smallest < 0 || int64(mi.Bytes) < smallest) {
			smallest = int64(mi.Bytes)
		}
	}
	if smallest < 0 {
		t.Fatal("no model ships as a delta")
	}

	base, err := playDefault(p)
	if err != nil {
		t.Fatalf("unbounded Play: %v", err)
	}
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"ample", 4 * backbone * int64(len(man.Models))},
		{"backbone+smallest delta", backbone + smallest},
		{"backbone", backbone},
		{"backbone-1", backbone - 1},
		{"none", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := stream.DefaultOptions()
			opts.CacheBudget = tc.budget
			res, err := playOver(p, p, opts)
			if err != nil {
				t.Fatalf("Play: %v", err)
			}
			got := budgetWant{
				CacheBytes: res.CacheBytes, Evictions: res.Evictions,
				Downloads: res.Downloads, CacheHits: res.CacheHits,
				Backbone: res.BackboneBytes, Delta: res.DeltaModelBytes, Full: res.FullModelBytes,
				Contents: res.CacheContents(),
			}
			if want := wholePayloadBudget(man, tc.budget); !reflect.DeepEqual(got, want) {
				t.Errorf("budget %d:\n got  %+v\n want %+v", tc.budget, got, want)
			}
			if res.DegradedSegments != 0 {
				t.Errorf("degraded segments = %d, want 0", res.DegradedSegments)
			}
			framesIdentical(t, res.Frames, base.Frames, "budgeted vs unbounded playback")
		})
	}
}
