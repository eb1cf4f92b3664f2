//go:build race

package daemon

// raceDetector reports that the race detector is on: it adds
// allocations of its own, so allocation counts mean nothing.
const raceDetector = true
