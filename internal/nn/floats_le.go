//go:build (amd64 || arm64) && !purego

package nn

import (
	"io"
	"unsafe"
)

// readFloats fills dst from r, which holds 4·len(dst) bytes of
// little-endian float32 fields. On a little-endian host the bytes of
// dst's storage already have the payload's layout, so the read is one
// copy from r into the weights: no scratch buffer and no per-element
// decode. It is a variable only so that a test can run the portable lane
// (readFloatsGo) on this host.
var readFloats = readFloatsDirect

func readFloatsDirect(r io.Reader, dst []float32) error {
	_, err := io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)))
	return err
}
