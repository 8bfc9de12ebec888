package codec

import (
	"testing"

	"dcsr/internal/video"
)

// benchClip is the end-to-end benchmark's reference input in miniature:
// a 480×272 news clip encoded at QP 42 with the EncoderConfig zero value
// otherwise (P-only GOP, full-pel, no deblock).
func benchClip() []*video.YUV {
	gc := video.GenreConfig(video.GenreNews, 480, 272, 1)
	gc.TotalCues, gc.MinFrames, gc.MaxFrames = 2, 27, 27
	return video.Generate(gc).YUVFrames()
}

var benchSink int

func BenchmarkEncode(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  EncoderConfig
	}{
		{"qp42", EncoderConfig{QP: 42}},
		{"qp30_b2_hp_db", EncoderConfig{QP: 30, BFrames: 2, HalfPel: true, Deblock: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			frames := benchClip()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := Encode(frames, nil, 30, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += st.Bytes()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N*len(frames)), "ms/frame")
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  EncoderConfig
		dec  Decoder
	}{
		{"qp42/plain", EncoderConfig{QP: 42}, Decoder{}},
		{"qp42/delta", EncoderConfig{QP: 42}, Decoder{Enhancer: goldenHook, Mode: PropagateDelta}},
		{"qp30_b2_hp_db/delta", EncoderConfig{QP: 30, BFrames: 2, HalfPel: true, Deblock: true},
			Decoder{Enhancer: goldenHook, Mode: PropagateDelta}},
	} {
		b.Run(c.name, func(b *testing.B) {
			frames := benchClip()
			st, err := Encode(frames, nil, 30, c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			// One decoder across iterations, as a playback session reuses
			// one across segments.
			dec := c.dec
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := dec.Decode(st)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N*len(frames)), "ms/frame")
		})
	}
}
