package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"dcsr/internal/video"
)

// testdata/parent_artifact is the gated artifact savedArtifact builds (a
// backbone, dcW5 deltas, every model int8-admitted), saved by the commit
// before int8-admitted models shipped as an int8 grid: its complete
// models are float32 (dcW1) payloads that a viewer re-quantizes.
// testdata/parent_artifact.txt holds the digests of the frames that
// commit played from it, in both precisions. Never regenerate either.

// framesDigest is the SHA-256 of every plane of every frame.
func framesDigest(frames []*video.YUV) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range frames {
		for _, plane := range [][]byte{f.Y, f.U, f.V} {
			h.Write(plane) //lint:allow errcheck hash.Hash.Write never returns an error
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// TestParentArtifactPlays: an artifact root written before the int8 grid
// still loads, still serves its float32 payloads as they were written,
// and plays the frames it played then, in both precisions.
func TestParentArtifactPlays(t *testing.T) {
	p, err := Load(copyDir(t, "testdata/parent_artifact"))
	if err != nil {
		t.Fatal(err)
	}
	for label, sm := range p.Models {
		if string(sm.Bytes[:4]) != "dcW1" || int64(len(sm.Bytes)) != p.MicroConfig.SizeBytes() {
			t.Errorf("model %d loaded as a %d-byte %q payload, want the float32 one it was saved as", label, len(sm.Bytes), sm.Bytes[:4])
		}
	}
	f32, int8 := playBoth(t, p)
	if int8.Decode.EnhancedInt8 == 0 {
		t.Error("the artifact served no int8 frames")
	}
	want, err := os.ReadFile("testdata/parent_artifact.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("float32 frames=%x\nint8 frames=%x\n", framesDigest(f32.Frames), framesDigest(int8.Frames)); got != string(want) {
		t.Errorf("played\n%swant\n%s", got, want)
	}
}
