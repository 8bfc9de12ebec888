package stream

import (
	"context"
	"errors"
	"testing"

	"dcsr/internal/edsr"
	"dcsr/internal/nn"
	"dcsr/internal/obs"
)

// pingPongManifest alternates two labels so a budget that fits only one
// model must evict on every switch: segments 0..3 with labels 0,1,0,1.
func pingPongManifest() *Manifest {
	m := &Manifest{Models: map[int]ModelInfo{
		0: {Label: 0, Bytes: 100},
		1: {Label: 1, Bytes: 100},
	}}
	for i, l := range []int{0, 1, 0, 1} {
		m.Segments = append(m.Segments, SegmentInfo{
			Index: i, Start: i * 10, End: (i + 1) * 10, Bytes: 1000, ModelLabel: l,
		})
	}
	return m
}

func TestSessionBudgetEvictsAndRefetches(t *testing.T) {
	o := obs.New()
	s, err := NewSessionWithBudget(pingPongManifest(), 150)
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = o
	s.Run()
	// Budget 150 holds one 100-byte model: every label switch evicts the
	// resident model, and every reference re-downloads.
	if s.Downloads != 4 || s.CacheHits != 0 || s.CacheMisses != 4 {
		t.Errorf("downloads/hits/misses = %d/%d/%d, want 4/0/4",
			s.Downloads, s.CacheHits, s.CacheMisses)
	}
	if s.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", s.Evictions)
	}
	if s.CacheBytes != 100 {
		t.Errorf("cache bytes = %d, want 100", s.CacheBytes)
	}
	if got := o.Metrics.Snapshot().Counters["modelstore_evictions_total"]; got != 3 {
		t.Errorf("modelstore_evictions_total = %d, want 3", got)
	}
	if s.ModelBytes != 400 {
		t.Errorf("model bytes = %d, want 400 (every reference re-downloads)", s.ModelBytes)
	}
}

func TestSessionAmpleBudgetMatchesUnbounded(t *testing.T) {
	unbounded, err := NewSession(pingPongManifest(), true)
	if err != nil {
		t.Fatal(err)
	}
	unbounded.Run()
	ample, err := NewSessionWithBudget(pingPongManifest(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ample.Run()
	if ample.CacheHits != unbounded.CacheHits || ample.Downloads != unbounded.Downloads {
		t.Errorf("ample budget hits/downloads = %d/%d, unbounded = %d/%d",
			ample.CacheHits, ample.Downloads, unbounded.CacheHits, unbounded.Downloads)
	}
	if ample.Evictions != 0 {
		t.Errorf("ample budget evicted %d models", ample.Evictions)
	}
	if unbounded.CacheHits != 2 {
		t.Errorf("unbounded cache hits = %d, want 2", unbounded.CacheHits)
	}
}

func TestSessionFetcherPayloadAndFailure(t *testing.T) {
	m := pingPongManifest()
	s, err := NewSessionWithBudget(m, -1)
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	s.Fetcher = faultyFetcher{s.Fetcher, func(label int) error {
		if label == 1 && fail {
			fail = false
			return errors.New("transient")
		}
		return nil
	}}
	s.Run()
	// Label 1's first fetch failed: segment 1 degraded, label 1 retried
	// (and cached) at segment 3.
	if s.DegradedSegments != 1 {
		t.Errorf("degraded = %d, want 1", s.DegradedSegments)
	}
	if !s.Events[1].Degraded || s.Events[3].Degraded {
		t.Errorf("degraded events: %+v", s.Events)
	}
	if s.Downloads != 2 {
		t.Errorf("downloads = %d, want 2 (label 0 once, label 1 on retry)", s.Downloads)
	}
	if s.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (segment 2)", s.CacheHits)
	}
	if s.CacheBytes != 200 {
		t.Errorf("cache bytes = %d, want 200 (both real payloads resident)", s.CacheBytes)
	}
}

// TestSessionRefusedPayloadRetainsNoModel: a payload the cache refuses —
// any payload under a zero budget, or one larger than the whole budget —
// still enhances its own segment, but the session must not keep its
// deserialized model: what the session holds is what the cache holds.
func TestSessionRefusedPayloadRetainsNoModel(t *testing.T) {
	cfg := edsr.Config{Filters: 4, ResBlocks: 1}
	m := pingPongManifest()
	f := &mapFetcher{full: map[int][]byte{}}
	for label := range m.Models {
		model, err := edsr.New(cfg, int64(label+1))
		if err != nil {
			t.Fatal(err)
		}
		f.full[label] = nn.EncodeWeights(model.Params())
		m.Models[label] = ModelInfo{Label: label, Bytes: len(f.full[label])}
	}
	size := int64(len(f.full[0]))
	for _, tc := range []struct {
		budget   int64
		resident int
	}{{0, 0}, {size - 1, 0}, {size, 1}, {-1, 2}} {
		s, err := Open(m, cfg, f, Options{Enhance: true, CacheBudget: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range m.Segments {
			if _, model, err := s.Fetch(context.Background(), seg); err != nil || model == nil {
				t.Fatalf("budget %d: segment %d got model %v, err %v", tc.budget, seg.Index, model, err)
			}
		}
		if len(s.models) != tc.resident || len(s.CacheContents()) != tc.resident || s.CacheBytes != int64(tc.resident)*size {
			t.Errorf("budget %d: session retains %d models over %d cached labels (%d bytes), want %d of each",
				tc.budget, len(s.models), len(s.CacheContents()), s.CacheBytes, tc.resident)
		}
	}
}
