//go:build race

package live

// raceDetector reports that the race detector is on: sync.Pool drops
// items at random under it, so allocation counts mean nothing.
const raceDetector = true
