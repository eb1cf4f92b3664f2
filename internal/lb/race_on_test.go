//go:build race

package lb

// raceDetector reports that the race detector is on: it changes what
// allocates, so allocation counts mean nothing.
const raceDetector = true
