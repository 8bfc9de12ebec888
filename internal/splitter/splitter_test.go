package splitter

import (
	"testing"

	"dcsr/internal/video"
)

func clipWithCuts(t *testing.T, cueLens []int) ([]*video.YUV, []int) {
	t.Helper()
	cues := make([]video.Cue, len(cueLens))
	for i, l := range cueLens {
		cues[i] = video.Cue{Scene: i % 3, Frames: l}
	}
	clip := video.Generate(video.GenConfig{W: 48, H: 48, Seed: 5, NumScenes: 3, Cues: cues})
	var wantCuts []int
	pos := 0
	for _, l := range cueLens[:len(cueLens)-1] {
		pos += l
		wantCuts = append(wantCuts, pos)
	}
	return clip.YUVFrames(), wantCuts
}

func TestSplitFindsSceneCuts(t *testing.T) {
	frames, wantCuts := clipWithCuts(t, []int{8, 6, 10, 7})
	segs := Split(frames, Config{Threshold: 10, MinLen: 2})
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4: %v", len(segs), segs)
	}
	for i, c := range wantCuts {
		if segs[i+1].Start != c {
			t.Errorf("segment %d starts at %d, want %d", i+1, segs[i+1].Start, c)
		}
	}
}

func TestSplitCoversAllFramesExactlyOnce(t *testing.T) {
	frames, _ := clipWithCuts(t, []int{5, 9, 4, 6, 8})
	segs := Split(frames, Config{Threshold: 10, MinLen: 2})
	covered := 0
	for i, s := range segs {
		if s.Index != i {
			t.Errorf("segment %d has Index %d", i, s.Index)
		}
		if s.Len() <= 0 {
			t.Errorf("segment %d empty", i)
		}
		if i > 0 && s.Start != segs[i-1].End {
			t.Errorf("gap between segment %d and %d", i-1, i)
		}
		covered += s.Len()
	}
	if covered != len(frames) {
		t.Fatalf("segments cover %d frames of %d", covered, len(frames))
	}
	if segs[0].Start != 0 || segs[len(segs)-1].End != len(frames) {
		t.Fatal("segments do not span the video")
	}
}

func TestSplitVariableLengths(t *testing.T) {
	frames, _ := clipWithCuts(t, []int{5, 12, 7, 15})
	segs := Split(frames, Config{Threshold: 10, MinLen: 2})
	lens := map[int]bool{}
	for _, s := range segs {
		lens[s.Len()] = true
	}
	if len(lens) < 3 {
		t.Fatalf("expected variable segment lengths, got %v", segs)
	}
}

func TestMinLenSuppressesRapidCuts(t *testing.T) {
	frames, _ := clipWithCuts(t, []int{2, 2, 2, 2, 2})
	segs := Split(frames, Config{Threshold: 10, MinLen: 4})
	for i, s := range segs[:len(segs)-1] {
		if s.Len() < 4 {
			t.Fatalf("segment %d has length %d < MinLen 4", i, s.Len())
		}
	}
}

func TestHighThresholdYieldsSingleSegment(t *testing.T) {
	frames, _ := clipWithCuts(t, []int{6, 6})
	segs := Split(frames, Config{Threshold: 255, MinLen: 2})
	if len(segs) != 1 {
		t.Fatalf("got %d segments with impossible threshold", len(segs))
	}
}

func TestSplitEmpty(t *testing.T) {
	if segs := Split(nil, Config{}); segs != nil {
		t.Fatalf("Split(nil) = %v", segs)
	}
}

func TestForceIFlags(t *testing.T) {
	segs := []Segment{{0, 0, 5}, {1, 5, 9}, {2, 9, 12}}
	flags := ForceIFlags(12, segs)
	for i, want := range map[int]bool{0: true, 5: true, 9: true, 3: false, 11: false} {
		if flags[i] != want {
			t.Errorf("flags[%d] = %v, want %v", i, flags[i], want)
		}
	}
}

func TestFixedSplit(t *testing.T) {
	segs := FixedSplit(10, 4)
	if len(segs) != 3 {
		t.Fatalf("FixedSplit(10,4) gave %d segments", len(segs))
	}
	if segs[2].Start != 8 || segs[2].End != 10 {
		t.Fatalf("tail segment %v", segs[2])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FixedSplit with non-positive length did not panic")
		}
	}()
	FixedSplit(10, 0)
}

func TestSegmentString(t *testing.T) {
	s := Segment{Index: 2, Start: 5, End: 9}
	if s.String() != "seg2[5:9)" {
		t.Fatalf("String = %q", s.String())
	}
}
