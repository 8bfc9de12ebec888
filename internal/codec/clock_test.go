package codec

import (
	"math"
	"testing"
	"time"

	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// TestDecoderInjectedClock pins the enhance-latency histogram to the
// decoder's injected clock: with a fake clock advancing a fixed step per
// reading, every observation is exactly one step, so the histogram's
// count and sum are fully determined by Stats.Enhanced.
func TestDecoderInjectedClock(t *testing.T) {
	frames := testClipYUV(t, 32, 32, 2, 41)
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 30, GOPSize: 6, BFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	const step = 10 * time.Millisecond
	base := time.Unix(0, 0)
	ticks := 0
	o := obs.New()
	d := Decoder{
		Enhancer: PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, Precision) { return f.Clone(), PrecisionFloat32 }),
		Obs:      o,
		Now: func() time.Time {
			ticks++
			return base.Add(time.Duration(ticks) * step)
		},
	}
	if _, err := d.Decode(st); err != nil {
		t.Fatal(err)
	}
	if d.Stats.Enhanced == 0 {
		t.Fatal("no I frames enhanced; fixture clip produced no anchors")
	}
	// The clock is read exactly twice per timed enhancement.
	if ticks != 2*d.Stats.Enhanced {
		t.Fatalf("clock read %d times, want %d", ticks, 2*d.Stats.Enhanced)
	}
	hs := o.Metrics.Snapshot().Histograms["codec_enhance_seconds"]
	if hs.Count != int64(d.Stats.Enhanced) {
		t.Fatalf("histogram count = %d, want %d", hs.Count, d.Stats.Enhanced)
	}
	want := step.Seconds() * float64(d.Stats.Enhanced)
	if math.Abs(hs.Sum-want) > 1e-9 {
		t.Fatalf("histogram sum = %g, want %g", hs.Sum, want)
	}
}

// TestDecoderDefaultClock checks the nil-Now default still works.
func TestDecoderDefaultClock(t *testing.T) {
	frames := testClipYUV(t, 32, 32, 1, 43)
	st, err := Encode(frames, nil, 30, EncoderConfig{QP: 30, GOPSize: 8, BFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	d := Decoder{
		Enhancer: PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, Precision) { return f.Clone(), PrecisionFloat32 }),
		Obs:      o,
	}
	if _, err := d.Decode(st); err != nil {
		t.Fatal(err)
	}
	hs := o.Metrics.Snapshot().Histograms["codec_enhance_seconds"]
	if hs.Count != int64(d.Stats.Enhanced) {
		t.Fatalf("histogram count = %d, want %d", hs.Count, d.Stats.Enhanced)
	}
	if hs.Sum < 0 {
		t.Fatalf("histogram sum = %g, want >= 0", hs.Sum)
	}
}
