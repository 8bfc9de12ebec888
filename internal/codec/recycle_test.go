package codec

import (
	"fmt"
	"testing"

	"dcsr/internal/video"
)

// recycleModes are the decoders the recycling tests reuse: the golden
// table's three, plus delta propagation behind a hook that declines every
// third I frame, so anchors with and without an enhancement delta mix.
// Only a mode whose every anchor carries a delta must recycle on every
// stream; one that shows every picture must recycle none.
var recycleModes = []struct {
	name          string
	dec           Decoder
	always, never bool
}{
	{"plain", Decoder{}, false, true},
	{"replace", Decoder{Enhancer: goldenHook, Mode: PropagateReplace}, false, true},
	{"delta", Decoder{Enhancer: goldenHook, Mode: PropagateDelta}, true, false},
	{"delta-declining", Decoder{Mode: PropagateDelta, Enhancer: PrecisionEnhancerFunc(func(display int, f *video.YUV) (*video.YUV, Precision) {
		if display%3 == 0 {
			return f, PrecisionFloat32
		}
		return goldenEnhancer(display, f), PrecisionFloat32
	})}, false, false},
}

// poison overwrites every sample of f, so a decode that reads a recycled
// picture before writing it shows up as a wrong digest.
func poison(f *video.YUV) {
	for _, p := range [][]uint8{f.Y, f.U, f.V} {
		for i := range p {
			p[i] = 0xAA
		}
	}
}

func mustUnmarshal(t *testing.T, wire []byte) *Stream {
	t.Helper()
	s, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDecoderRecyclesPictures reuses one Decoder per mode over every
// golden stream (B frames, half-pel, deblock) and, midway, a stream of
// another size, poisoning the recycled pictures before each stream. Each
// decode must equal a fresh decoder's; no two frames returned across all
// calls may share a plane; the free list stays within the DPB depth, and
// only delta propagation, whose plain chain is never shown, fills it.
func TestDecoderRecyclesPictures(t *testing.T) {
	var streams [][]byte
	for _, c := range goldenStreams(t) {
		streams = append(streams, c.wire)
	}
	other, err := Encode(testClipYUV(t, 48, 32, 2, 77), nil, 30, EncoderConfig{QP: 30, GOPSize: 12, BFrames: 2, HalfPel: true, Deblock: true})
	if err != nil {
		t.Fatal(err)
	}
	mid := len(streams) / 2
	streams = append(streams[:mid], append([][]byte{other.Marshal()}, streams[mid:]...)...)
	for _, mode := range recycleModes {
		t.Run(mode.name, func(t *testing.T) {
			d := mode.dec
			owner := map[*uint8]string{} // keeps every returned plane alive
			for i, wire := range streams {
				for _, f := range d.free {
					poison(f)
				}
				got, err := d.Decode(mustUnmarshal(t, wire))
				if err != nil {
					t.Fatalf("stream %d: %v", i, err)
				}
				fresh := mode.dec
				want, err := fresh.Decode(mustUnmarshal(t, wire))
				if err != nil {
					t.Fatal(err)
				}
				if digestFrames(got) != digestFrames(want) {
					t.Fatalf("stream %d: reused decoder's frames differ from a fresh decoder's", i)
				}
				for k, f := range got {
					for _, p := range [][]uint8{f.Y, f.U, f.V} {
						if prev, ok := owner[&p[0]]; ok {
							t.Fatalf("stream %d frame %d shares a plane with %s", i, k, prev)
						}
						owner[&p[0]] = fmt.Sprintf("stream %d frame %d", i, k)
					}
				}
				switch n := len(d.free); {
				case n > maxFree:
					t.Fatalf("stream %d: free list holds %d pictures, more than the DPB depth %d", i, n, maxFree)
				case mode.always && n == 0:
					t.Fatalf("stream %d: delta propagation recycled no plain picture", i)
				case mode.never && n != 0:
					t.Fatalf("stream %d: %d displayed pictures recycled", i, n)
				}
			}
		})
	}
}

// TestDecoderCopyStartsEmpty: a copy of a Decoder holding recycled
// pictures decodes into pictures of its own and leaves the original's
// free list as it was.
func TestDecoderCopyStartsEmpty(t *testing.T) {
	s := mustUnmarshal(t, goldenStreams(t)[5].wire) // qp20/b2/hptrue/dbtrue
	d := Decoder{Enhancer: goldenHook, Mode: PropagateDelta}
	want, err := d.Decode(s)
	if err != nil {
		t.Fatal(err)
	}
	parent := append([]*video.YUV(nil), d.free...)
	if len(parent) == 0 {
		t.Fatal("decoder recycled nothing")
	}
	owned := map[*uint8]bool{}
	for _, f := range parent {
		owned[&f.Y[0]], owned[&f.U[0]], owned[&f.V[0]] = true, true, true
	}
	c := d
	got, err := c.Decode(s)
	if err != nil {
		t.Fatal(err)
	}
	if digestFrames(got) != digestFrames(want) {
		t.Fatal("copied decoder's frames differ")
	}
	for _, f := range append(got, c.free...) {
		if owned[&f.Y[0]] || owned[&f.U[0]] || owned[&f.V[0]] {
			t.Fatal("copied decoder handed out its parent's recycled picture")
		}
	}
	if len(d.free) != len(parent) {
		t.Fatalf("parent's free list went from %d to %d pictures", len(parent), len(d.free))
	}
	for i, f := range parent {
		if d.free[i] != f {
			t.Fatalf("parent's free list entry %d changed", i)
		}
	}
}

// TestReusedDecoderAllocs pins what recycling saves on the benchmark
// clip: a reused decoder under delta propagation, with a hook that
// allocates one frame per I frame, allocates within 10 % of a plain
// decode of the same stream — the frames it returns — where keeping a
// second, plain chain once cost twice that.
func TestReusedDecoderAllocs(t *testing.T) {
	st, err := Encode(benchClip(), nil, 30, EncoderConfig{QP: 42})
	if err != nil {
		t.Fatal(err)
	}
	clone := PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, Precision) { return f.Clone(), PrecisionFloat32 })
	reused := func(d *Decoder) uint64 {
		if _, err := d.Decode(st); err != nil {
			t.Fatal(err)
		}
		return allocatedBy(func() {
			if _, err := d.Decode(st); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := reused(&Decoder{})
	delta := reused(&Decoder{Enhancer: clone, Mode: PropagateDelta})
	t.Logf("plain %d B, delta %d B (%.3f×)", plain, delta, float64(delta)/float64(plain))
	if float64(delta) > 1.1*float64(plain) {
		t.Errorf("reused delta decode allocates %d B, want <= 1.1 × the plain decode's %d B", delta, plain)
	}
}

// TestDecoderRecycleReturnedFrames: frames handed back with Recycle are
// decoded into — poisoned first, every decode still equals a fresh
// decoder's — and a reused decoder under delta propagation whose caller
// hands every frame back allocates, per decode of the benchmark clip,
// the hook's frames and less than one more.
func TestDecoderRecycleReturnedFrames(t *testing.T) {
	st, err := Encode(benchClip(), nil, 30, EncoderConfig{QP: 42})
	if err != nil {
		t.Fatal(err)
	}
	clone := PrecisionEnhancerFunc(func(_ int, f *video.YUV) (*video.YUV, Precision) { return f.Clone(), PrecisionFloat32 })
	fresh := Decoder{Enhancer: clone, Mode: PropagateDelta}
	want, err := fresh.Decode(st)
	if err != nil {
		t.Fatal(err)
	}
	d := Decoder{Enhancer: clone, Mode: PropagateDelta}
	var got []*video.YUV
	decode := func() {
		d.Recycle(got)
		for _, f := range d.free {
			poison(f)
		}
		if got, err = d.Decode(st); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	decode()
	grew := allocatedBy(decode)
	if digestFrames(got) != digestFrames(want) {
		t.Fatal("a decoder decoding into recycled frames shows other frames than a fresh one")
	}
	frame := uint64(len(want[0].Y) + len(want[0].U) + len(want[0].V))
	hook := uint64(st.CountType(FrameI)) * frame
	t.Logf("%d B per decode; the hook's frames are %d B, one frame %d B", grew, hook, frame)
	if grew >= hook+frame {
		t.Errorf("a decode into recycled frames allocated %d B, want < %d B (the hook's frames plus one)", grew, hook+frame)
	}
}
