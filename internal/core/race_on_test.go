//go:build race

package core_test

// raceDetector reports that the race detector is on: it shadows every
// allocation, so heap readings mean nothing.
const raceDetector = true
