//go:build !race

package persist

const raceDetector = false
