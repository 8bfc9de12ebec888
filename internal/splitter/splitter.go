// Package splitter implements shot-based variable-length video
// segmentation (paper §3.1.1, following Netflix's optimized shot-based
// encoding): a new segment starts wherever the difference between
// consecutive frames exceeds a threshold, so each segment is one visually
// coherent shot representable by its I frame.
package splitter

import (
	"fmt"

	"dcsr/internal/video"
)

// Config tunes scene-cut detection.
type Config struct {
	// Threshold is the mean-absolute luma difference (0–255) above which a
	// cut is declared. Default 18.
	Threshold float64
	// MinLen is the minimum segment length in frames; cuts closer than this
	// to the previous cut are suppressed. Default 4.
	MinLen int
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 18
	}
	if c.MinLen == 0 {
		c.MinLen = 4
	}
	return c
}

// Segment is a half-open frame range [Start, End) of one shot.
type Segment struct {
	Index      int
	Start, End int
}

// Len returns the segment length in frames.
func (s Segment) Len() int { return s.End - s.Start }

// String formats the segment range.
func (s Segment) String() string { return fmt.Sprintf("seg%d[%d:%d)", s.Index, s.Start, s.End) }

// Split partitions frames into variable-length shot segments.
func Split(frames []*video.YUV, cfg Config) []Segment {
	cfg = cfg.withDefaults()
	if len(frames) == 0 {
		return nil
	}
	cuts := cutPoints(frames, cfg)
	var segs []Segment
	start := 0
	for _, c := range cuts {
		segs = append(segs, Segment{Index: len(segs), Start: start, End: c})
		start = c
	}
	segs = append(segs, Segment{Index: len(segs), Start: start, End: len(frames)})
	return segs
}

// cutPoints returns the ascending frame indices where new segments begin
// (excluding index 0).
func cutPoints(frames []*video.YUV, cfg Config) []int {
	cfg = cfg.withDefaults()
	var cuts []int
	last := 0
	for i := 1; i < len(frames); i++ {
		if video.MeanAbsDiff(frames[i-1], frames[i]) > cfg.Threshold && i-last >= cfg.MinLen {
			cuts = append(cuts, i)
			last = i
		}
	}
	return cuts
}

// ForceIFlags converts segment boundaries into the per-frame force-I mask
// the encoder consumes, so every segment starts with an I frame.
func ForceIFlags(n int, segs []Segment) []bool {
	flags := make([]bool, n)
	for _, s := range segs {
		if s.Start < n {
			flags[s.Start] = true
		}
	}
	return flags
}

// FixedSplit partitions n frames into fixed-length segments (the
// content-agnostic strategy of NAS/NEMO, used by the split ablation).
func FixedSplit(n, segLen int) []Segment {
	if segLen <= 0 {
		panic("splitter: FixedSplit requires positive segment length")
	}
	var segs []Segment
	for start := 0; start < n; start += segLen {
		end := start + segLen
		if end > n {
			end = n
		}
		segs = append(segs, Segment{Index: len(segs), Start: start, End: end})
	}
	return segs
}
