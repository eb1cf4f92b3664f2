package main

import "time"

// The reference box is a two-core guest of a shared host, and each of
// its cores runs at one of two speeds a quarter apart, switching every
// few seconds and sometimes staying slow for minutes: a loop of
// dependent multiplications reads 0.79 or 1.00 steps per nanosecond,
// nothing in between, on each core independently. Every timing taken
// on such a core moves with it, so ten runs of the same code spread by
// that quarter whatever statistic a run reports.
//
// The harness therefore measures the cores' speed beside the program:
// every round of a timed window (and every set-up) runs between two
// calibrations, and each timing and rate is reported at the nominal
// speed of one step per nanosecond — a time is multiplied by the speed
// it was measured at, a rate divided by it. On a core that runs the
// loop at exactly that speed (the reference box in a calm second) the
// reported microsecond is a microsecond of the wall clock; elsewhere it
// is the microsecond such a core would have needed. A change to the
// program moves the program's timings and not the loop's, so a
// regression shows as it would on the wall clock.

const (
	// calibFor is how long one calibration spins.
	calibFor = 4 * time.Millisecond
	// calibChunk is the number of steps between two clock reads, about
	// 16 us: the clock read is then under 0.3% of a chunk.
	calibChunk = 1 << 14
)

// calibSink keeps the loop's result alive.
var calibSink uint64

// calibrate runs the calibration loop for calibFor on the one core the
// run uses and returns its speed in steps per nanosecond. A step is one
// round of a linear congruential generator: each needs the previous
// one's result, so the loop's speed is set by the core's clock and by
// nothing the compiler or the memory system can rearrange.
func calibrate() float64 {
	x := uint64(1)
	steps := 0
	start := time.Now()
	var elapsed time.Duration
	for elapsed < calibFor {
		for i := 0; i < calibChunk; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		steps += calibChunk
		elapsed = time.Since(start)
	}
	calibSink = x
	return float64(steps) / float64(elapsed.Nanoseconds())
}
