// Package transport (fixture) exercises the determinism contract's
// file scope: the codec files (frame.go, handshake.go, wire.go) are
// checked, and the rest of the package is not.
package transport

import "time"

func stampPayload(b []byte) []byte {
	return append(b, byte(time.Now().Unix())) // want `time.Now in deterministic package`
}
