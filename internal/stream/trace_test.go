package stream

import (
	"context"
	"testing"

	"dcsr/internal/codec"
	"dcsr/internal/edsr"
	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// TestSessionOwnsItsTrace pins where a session's spans go, with the ctx
// as the only way in: Play under a bare ctx records one "play" root
// under Options.Obs with one segment_fetch child per segment, and Play
// under a ctx carrying a span hangs the segment spans off that span and
// records no root of its own.
func TestSessionOwnsItsTrace(t *testing.T) {
	clip := video.Generate(video.GenConfig{W: 32, H: 16, Seed: 5, NumScenes: 1, TotalCues: 1, MinFrames: 3, MaxFrames: 3})
	st, err := codec.Encode(clip.YUVFrames(), nil, 30, codec.EncoderConfig{QP: 30})
	if err != nil {
		t.Fatal(err)
	}
	segment := st.Marshal()
	m := &Manifest{Models: map[int]ModelInfo{}}
	for i := range 3 {
		n := clip.Len()
		m.Segments = append(m.Segments, SegmentInfo{Index: i, Start: i * n, End: (i + 1) * n, Bytes: len(segment), ModelLabel: -1})
	}
	// play runs one session under ctx and returns the one root o retains.
	play := func(ctx context.Context, o *obs.Obs, root *obs.Span) obs.SpanJSON {
		t.Helper()
		opts := DefaultOptions()
		opts.Obs = o
		s, err := Open(m, edsr.Config{}, segmentFetcher{segment: segment}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Play(ctx); err != nil {
			t.Fatal(err)
		}
		root.End()
		traces := o.Trace.Traces()
		if len(traces) != 1 {
			t.Fatalf("recorded %d root spans, want 1", len(traces))
		}
		return traces[0]
	}
	check := func(tr obs.SpanJSON, name string) {
		t.Helper()
		if tr.Name != name || tr.InFlight || len(tr.Children) != len(m.Segments) {
			t.Fatalf("root %q (in flight %v) has %d children; want %q with one segment_fetch per segment (%d)",
				tr.Name, tr.InFlight, len(tr.Children), name, len(m.Segments))
		}
		for _, c := range tr.Children {
			if c.Name != "segment_fetch" || c.TraceID != tr.TraceID {
				t.Errorf("child %q in trace %s, want segment_fetch in %s", c.Name, c.TraceID, tr.TraceID)
			}
		}
	}

	check(play(context.Background(), obs.New(), nil), "play")

	o := obs.New()
	viewer := o.Start("viewer")
	check(play(obs.WithSpan(context.Background(), viewer), o, viewer), "viewer")
}
