//go:build !amd64 || purego

package codec

// sad16 is the portable kernel where the amd64 assembly does not apply.
func sad16(cur, ref []uint8, stride, limit int) int { return sad16Go(cur, ref, stride, limit) }
