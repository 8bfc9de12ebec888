//go:build !purego

package codec

// sad16 is sad16Go through the PSADBW kernel in sad_amd64.s. SSE2 is part
// of the amd64 baseline, so there is nothing to detect and nothing to
// switch. The index expressions are the bounds check the assembly does
// not make.
func sad16(cur, ref []uint8, stride, limit int) int {
	_, _ = cur[15*stride+15], ref[15*stride+15]
	return sad16SSE2(cur, ref, stride, limit)
}

//go:noescape
func sad16SSE2(cur, ref []uint8, stride, limit int) int
