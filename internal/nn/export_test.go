package nn

import (
	"math"
	"testing"
)

// UseFusedReconstruction makes ApplyWeightsDelta reconstruct as a build
// that fuses the multiply-add does — backbone + scale·code rounded once
// (exact in float64, then to float32) — until t ends.
func UseFusedReconstruction(t testing.TB) {
	t.Cleanup(func() { reconstruct = reconstructDelta })
	reconstruct = func(out, backbone []float32, codes []int8, scale float32) {
		for i := range out {
			if codes[i] == 0 || scale == 0 {
				out[i] = backbone[i]
				continue
			}
			out[i] = float32(math.FMA(float64(scale), float64(codes[i]), float64(backbone[i])))
		}
	}
}
