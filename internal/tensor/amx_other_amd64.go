//go:build !linux && !purego

package tensor

import "errors"

// requestAMX reports no AMX lane: the tile-data permission request is
// Linux's, and no other OS is asked for the state.
func requestAMX() error { return errors.New("tensor: AMX tile data is requested only on Linux") }
