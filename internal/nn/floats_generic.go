//go:build !(amd64 || arm64) || purego

package nn

// readFloats fills dst from r, which holds 4·len(dst) bytes of
// little-endian float32 fields, through the portable lane: the host may
// be big-endian, or the build keeps to portable code (-tags purego). It
// is a variable, as in floats_le.go, only so that a test can swap lanes.
var readFloats = readFloatsGo
