//go:build !race

package lb

const raceDetector = false
