//go:build race

package transport

// raceDetector reports that the race detector is on: sync.Pool drops
// items at random under it, so allocation counts mean nothing.
const raceDetector = true
