//go:build !race

package daemon

const raceDetector = false
