package codec

import (
	"testing"

	"dcsr/internal/obs"
	"dcsr/internal/video"
)

// TestPrecisionEnhancerRouting pins the per-precision attribution: an
// enhancer that alternates paths per I frame must have every
// enhancement counted in Enhanced, only the int8 ones in EnhancedInt8
// and codec_enhance_int8_seconds, and declined frames (input
// returned unchanged) in neither — regardless of reported precision.
func TestPrecisionEnhancerRouting(t *testing.T) {
	frames := testClipYUV(t, 64, 48, 3, 31)
	forceI := make([]bool, len(frames))
	for i := range forceI {
		forceI[i] = i%4 == 0
	}
	st, err := Encode(frames, forceI, 30, EncoderConfig{QP: 28, GOPSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	numI := st.CountType(FrameI)
	if numI < 3 {
		t.Fatalf("need at least 3 I frames, got %d", numI)
	}
	o := obs.New()
	call := 0
	d := Decoder{
		Obs: o,
		Enhancer: PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, Precision) {
			call++
			switch call % 3 {
			case 0:
				// Declined: even a claimed int8 precision must not count
				// when the hook returns its input unchanged.
				return f, PrecisionInt8
			case 1:
				return f.Clone(), PrecisionInt8
			default:
				return f.Clone(), PrecisionFloat32
			}
		}),
	}
	if _, err := d.Decode(st); err != nil {
		t.Fatal(err)
	}
	declined := numI / 3
	wantInt8 := (numI + 2) / 3
	if got := d.Stats.Enhanced; got != numI-declined {
		t.Errorf("Enhanced = %d, want %d", got, numI-declined)
	}
	if got := d.Stats.EnhancedInt8; got != wantInt8 {
		t.Errorf("EnhancedInt8 = %d, want %d", got, wantInt8)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Histograms["codec_enhance_seconds"].Count; got != int64(d.Stats.Enhanced) {
		t.Errorf("codec_enhance_seconds count = %d, want %d", got, d.Stats.Enhanced)
	}
	if got := snap.Histograms["codec_enhance_int8_seconds"]; got.Count != int64(wantInt8) || got.WindowCount != int64(wantInt8) {
		t.Errorf("codec_enhance_int8_seconds count = %d (window %d), want %d", got.Count, got.WindowCount, wantInt8)
	}

	// An enhancer that reports float32 throughout attributes nothing to int8.
	d2 := Decoder{Enhancer: PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, Precision) { return f.Clone(), PrecisionFloat32 })}
	if _, err := d2.Decode(st); err != nil {
		t.Fatal(err)
	}
	if d2.Stats.Enhanced != numI || d2.Stats.EnhancedInt8 != 0 {
		t.Errorf("float32 enhancer: Enhanced=%d EnhancedInt8=%d, want %d and 0",
			d2.Stats.Enhanced, d2.Stats.EnhancedInt8, numI)
	}
}
