package main

import (
	"maps"
	"math"
	"slices"
	"sort"
)

// metricDef describes one reported metric. The two tables below are
// the program's side of BENCHMARK.json; main_test.go fails when they
// and the file disagree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median a metric may worsen
}

// endToEnd lists the metrics every workload reports with tracing off.
// The driver's contract wants each of them from each workload, so a
// metric whose operation is not in a workload's own mix is measured
// by a probe slice of that operation in every round, on the same
// overlay (see README.md, "Window or probe").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"limit10_p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.20},
	{"phys_hops_per_op", "count", "lower", 0.20},
	{"heap_mb", "MB", "lower", 0.20},
}

// measurement is one reported value with its unit and the number of
// samples behind it.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics maps metric name to its measurement for one workload.
type metrics map[string]measurement

func (m metrics) set(name, unit string, v float64, n int) {
	m[name] = measurement{Value: v, Unit: unit, N: n}
}

func (m metrics) names() []string { return slices.Sorted(maps.Keys(m)) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func usOf(ns float64) float64 { return ns / 1e3 }

// bestShare picks which round a timing or rate is reported from: the
// one at the best eighth of the rounds (the 13th best of 100). What
// the calibration cannot see — a neighbour of the shared host emptying
// the caches, the guest's other processes taking the core — only ever
// slows a round down, in episodes of seconds, so the median round
// moves with the neighbours while the calm rounds stay put: over ten
// runs lookup-tcp read_p50_us spread 7% at the median round and 3% at
// the best eighth. A slowdown in the code moves every round alike and
// shows either way.
const bestShare = 0.125

// bestOf returns the value at the best bestShare of xs.
func bestOf(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(int(math.Ceil(bestShare*float64(len(s)))), 1) // 1-based, from the best end
	if higherIsBetter {
		return s[len(s)-rank]
	}
	return s[rank-1]
}

// summarize turns the timed window into the end-to-end metrics. Every
// timing and rate is computed round by round and brought to the nominal
// core speed with the round's calibration (see calib.go); the round at
// the best eighth is reported (see bestShare). A metric whose operation
// class the workload's own mix does not contain is taken, the same
// way, from that class's probe slices.
func summarize(win *windowResult, out metrics) {
	// group returns the index of the probe group of class c, or -1
	// when the workload's own mix contains c.
	group := func(c opClass) int {
		return slices.IndexFunc(win.groups, func(g probeGroup) bool { return g.class == c })
	}
	// overRounds reports f's value, at nominal speed, of the round at
	// the best eighth, with the sample count n summed over all rounds.
	// f is given the round's reading that holds samples of class c.
	overRounds := func(name, unit string, rate bool, c opClass, f func(rd *reading) (v float64, n int)) {
		var xs []float64
		total := 0
		j := group(c)
		for i := range win.rounds {
			r := &win.rounds[i]
			rd := &r.main
			if j >= 0 {
				rd = &r.probes[j]
			}
			v, n := f(rd)
			if n == 0 {
				continue
			}
			if rate {
				v /= r.speed
			} else {
				v *= r.speed
			}
			xs = append(xs, v)
			total += n
		}
		if total > 0 {
			out.set(name, unit, bestOf(xs, rate), total)
		}
	}
	p50 := func(name string, c opClass, h int) {
		overRounds(name, "us", false, c, func(rd *reading) (float64, int) { return usOf(rd.p50[h]), rd.n[h] })
	}
	p99 := func(name string, c opClass, h int) {
		overRounds(name, "us", false, c, func(rd *reading) (float64, int) { return usOf(rd.p99[h]), rd.n[h] })
	}

	// ops_per_s is the rate of the workload's own mix: opScan is never
	// probed, so it selects the main slices.
	overRounds("ops_per_s", "1/s", true, opScan, func(rd *reading) (float64, int) {
		return float64(rd.ops) / rd.seconds, rd.ops
	})
	if win.main.ops > 0 {
		out.set("allocs_per_op", "count", float64(win.mainMallocs)/float64(win.main.ops), win.main.ops)
	}
	p50("read_p50_us", opDiscover, int(opDiscover))
	p99("read_p99_us", opDiscover, int(opDiscover))
	p50("write_p50_us", opRegister, histWrite)
	p99("write_p99_us", opRegister, histWrite)
	p50("limit10_p50_us", opLimit10, int(opLimit10))
	// Ungated extras of a window that streams (scan-tcp).
	p50("first_result_p50_us", opFirst, histFirst)
	overRounds("scan_keys_per_s", "1/s", true, opScan, func(rd *reading) (float64, int) {
		return float64(rd.scanKeys) / rd.seconds, rd.scanKeys
	})
	// Hop counts are a property of the routes, not of the clock: the
	// mean over every round.
	hops := &win.main
	if j := group(opDiscover); j >= 0 {
		hops = &win.probes[j]
	}
	if hops.hopOps > 0 {
		out.set("phys_hops_per_op", "count", float64(hops.hops)/float64(hops.hopOps), hops.hopOps)
	}
}
