package stream

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// paperFig7Manifest reproduces the walk-through example of paper Fig 7:
// segments 0..6 with model labels 0,1,1,2,2,2,3.
func paperFig7Manifest() *Manifest {
	labels := []int{0, 1, 1, 2, 2, 2, 3}
	m := &Manifest{Models: map[int]ModelInfo{
		0: {Label: 0, Bytes: 100},
		1: {Label: 1, Bytes: 110},
		2: {Label: 2, Bytes: 120},
		3: {Label: 3, Bytes: 130},
	}}
	for i, l := range labels {
		m.Segments = append(m.Segments, SegmentInfo{
			Index: i, Start: i * 10, End: (i + 1) * 10, Bytes: 1000, ModelLabel: l,
		})
	}
	return m
}

func TestPaperFig7WalkThrough(t *testing.T) {
	m := paperFig7Manifest()
	s, err := NewSession(m, true)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Models download exactly at segments 0, 1, 3 and 6 (paper Fig 7).
	wantDownloads := map[int]bool{0: true, 1: true, 3: true, 6: true}
	for _, ev := range s.Events {
		if ev.ModelDownloaded != wantDownloads[ev.Segment] {
			t.Errorf("segment %d: downloaded=%v, want %v", ev.Segment, ev.ModelDownloaded, wantDownloads[ev.Segment])
		}
	}
	if s.Downloads != 4 {
		t.Errorf("downloads = %d, want 4", s.Downloads)
	}
	if s.CacheHits != 3 {
		t.Errorf("cache hits = %d, want 3 (segments 2, 4, 5)", s.CacheHits)
	}
	if got := s.CacheContents(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("cache contents %v", got)
	}
	if s.ModelBytes != 100+110+120+130 {
		t.Errorf("model bytes %d", s.ModelBytes)
	}
	if s.VideoBytes != 7000 {
		t.Errorf("video bytes %d", s.VideoBytes)
	}
	if s.TotalBytes() != s.VideoBytes+s.ModelBytes {
		t.Error("TotalBytes inconsistent")
	}
}

func TestNoCacheDownloadsEverySegment(t *testing.T) {
	m := paperFig7Manifest()
	s, err := NewSession(m, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.Downloads != 7 {
		t.Errorf("no-cache downloads = %d, want 7", s.Downloads)
	}
	if s.CacheHits != 0 {
		t.Errorf("no-cache hits = %d", s.CacheHits)
	}
	// Caching saves exactly the re-downloads: 1×110 + 2×120.
	withCache, _ := NewSession(m, true)
	withCache.Run()
	if saved := s.ModelBytes - withCache.ModelBytes; saved != 110+120+120 {
		t.Errorf("cache saved %d bytes, want %d", saved, 110+120+120)
	}
}

func TestSegmentsWithoutModels(t *testing.T) {
	m := &Manifest{
		Segments: []SegmentInfo{
			{Index: 0, Start: 0, End: 5, Bytes: 500, ModelLabel: -1},
			{Index: 1, Start: 5, End: 9, Bytes: 400, ModelLabel: -1},
		},
		Models: map[int]ModelInfo{},
	}
	s, err := NewSession(m, true)
	if err != nil {
		t.Fatal(err)
	}
	total := s.Run()
	if total != 900 || s.Downloads != 0 {
		t.Fatalf("total=%d downloads=%d", total, s.Downloads)
	}
}

func TestManifestValidate(t *testing.T) {
	valid := func() *Manifest {
		return &Manifest{
			Segments: []SegmentInfo{{Index: 0, Start: 0, End: 5, Bytes: 500, ModelLabel: 1}},
			Models:   map[int]ModelInfo{1: {Label: 1, Bytes: 100}},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Manifest)
		wantErr bool
	}{
		{"valid", func(*Manifest) {}, false},
		{"zero-byte segment is fine (all-skip coding)", func(m *Manifest) {
			m.Segments[0].Bytes = 0
		}, false},
		{"no model needed", func(m *Manifest) {
			m.Segments[0].ModelLabel = -1
		}, false},
		{"dangling model reference", func(m *Manifest) {
			m.Segments[0].ModelLabel = 9
		}, true},
		{"empty frame range", func(m *Manifest) {
			m.Segments[0].Start, m.Segments[0].End = 5, 5
		}, true},
		{"inverted frame range", func(m *Manifest) {
			m.Segments[0].Start, m.Segments[0].End = 5, 2
		}, true},
		{"negative segment bytes", func(m *Manifest) {
			m.Segments[0].Bytes = -1
		}, true},
		{"zero-byte model", func(m *Manifest) {
			m.Models[1] = ModelInfo{Label: 1, Bytes: 0}
		}, true},
		{"negative model bytes", func(m *Manifest) {
			m.Models[1] = ModelInfo{Label: 1, Bytes: -100}
		}, true},
		{"unreferenced zero-byte model still rejected", func(m *Manifest) {
			m.Models[7] = ModelInfo{Label: 7}
		}, true},
		{"duplicate segment index (silent shadowing)", func(m *Manifest) {
			m.Segments = append(m.Segments, SegmentInfo{Index: 0, Start: 5, End: 9, Bytes: 100, ModelLabel: -1})
		}, true},
		{"model keyed under a different label", func(m *Manifest) {
			m.Models[2] = ModelInfo{Label: 1, Bytes: 100}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid()
			tc.mutate(m)
			err := m.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tc.wantErr)
			}
			if _, serr := NewSession(m, true); (serr != nil) != tc.wantErr {
				t.Fatalf("NewSession error = %v, wantErr=%v", serr, tc.wantErr)
			}
		})
	}
}

// failTwiceFetcher fails the first two fetches of each label, modelling a
// transient outage that lazy retry rides out.
func failTwiceFetcher(failed map[int]int) func(int) error {
	return func(label int) error {
		if failed[label] < 2 {
			failed[label]++
			return errInjected
		}
		return nil
	}
}

var errInjected = fmt.Errorf("stream_test: injected fetch failure")

// faultyFetcher wraps a session's backend: fail decides, per model
// artifact requested, whether the download errors out.
type faultyFetcher struct {
	Fetcher
	fail func(label int) error
}

func (f faultyFetcher) Fetch(ctx context.Context, kind Kind, arg int) ([]byte, error) {
	if kind != KindSegment {
		if err := f.fail(arg); err != nil {
			return nil, err
		}
	}
	return f.Fetcher.Fetch(ctx, kind, arg)
}

func TestSessionDegradesOnFetchFailure(t *testing.T) {
	m := paperFig7Manifest()
	s, err := NewSession(m, true)
	if err != nil {
		t.Fatal(err)
	}
	failed := map[int]int{}
	s.Fetcher = faultyFetcher{s.Fetcher, failTwiceFetcher(failed)}
	s.Run()
	// Label 2 covers segments 3,4,5: fetches at 3 and 4 fail, 5 succeeds.
	// Labels 0,1,3 cover too few segments to recover.
	var degraded []int
	for _, ev := range s.Events {
		if ev.Degraded {
			if ev.ModelDownloaded || ev.ModelBytes != 0 {
				t.Errorf("degraded segment %d counted as a download", ev.Segment)
			}
			degraded = append(degraded, ev.Segment)
		}
	}
	if !reflect.DeepEqual(degraded, []int{0, 1, 2, 3, 4, 6}) {
		t.Errorf("degraded segments %v, want [0 1 2 3 4 6]", degraded)
	}
	if s.DegradedSegments != 6 {
		t.Errorf("DegradedSegments = %d, want 6", s.DegradedSegments)
	}
	if s.Downloads != 1 {
		t.Errorf("Downloads = %d, want 1 (only label 2 recovers)", s.Downloads)
	}
	// Misses count attempts (7: every non-hit reference), downloads count
	// successes (1); hits are zero because nothing earlier got cached
	// except label 2 at segment 5 — which has no later reference.
	if s.CacheMisses != 7 || s.CacheHits != 0 {
		t.Errorf("misses=%d hits=%d, want 7/0", s.CacheMisses, s.CacheHits)
	}
	// Byte accounting covers only real transfers: video + one model.
	if s.ModelBytes != 120 {
		t.Errorf("ModelBytes = %d, want 120 (label 2 only)", s.ModelBytes)
	}
	if got := s.CacheContents(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("cache contents %v, want [2]", got)
	}
}

func TestSessionFetcherAllSucceedMatchesSeed(t *testing.T) {
	m := paperFig7Manifest()
	plain, _ := NewSession(m, true)
	plain.Run()
	hooked, _ := NewSession(m, true)
	hooked.Fetcher = faultyFetcher{hooked.Fetcher, func(int) error { return nil }}
	hooked.Run()
	if !reflect.DeepEqual(plain.Events, hooked.Events) {
		t.Error("always-succeeding Fetcher changed the event log")
	}
	if plain.TotalBytes() != hooked.TotalBytes() ||
		plain.Downloads != hooked.Downloads ||
		plain.CacheHits != hooked.CacheHits ||
		plain.CacheMisses != hooked.CacheMisses ||
		hooked.DegradedSegments != 0 {
		t.Errorf("accounting diverged: plain %+v, hooked %+v", plain, hooked)
	}
}

func TestManifestTotals(t *testing.T) {
	m := paperFig7Manifest()
	if m.TotalVideoBytes() != 7000 {
		t.Errorf("TotalVideoBytes %d", m.TotalVideoBytes())
	}
	if m.TotalModelBytes() != 460 {
		t.Errorf("TotalModelBytes %d", m.TotalModelBytes())
	}
	if got := m.ModelLabels(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("ModelLabels %v", got)
	}
}
