package main

import "math/bits"

// hist is a fixed log-linear latency histogram over nanosecond values:
// values below 2^histSubBits land in exact unit buckets, larger ones
// in histSub equal-width buckets per power of two, so a bucket is at
// most 1/64 of its lower edge wide and a reported quantile (bucket
// midpoint) is within 1% of the sample it stands for. It is a plain
// preallocated array: recording neither allocates nor takes a lock,
// so it cannot distort allocs_per_op or the latencies it records.
// Each client goroutine owns its histograms; they are merged after
// the clients have stopped.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histMaxExp bounds the range at 2^40 ns (18 minutes); anything
	// slower lands in the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp-histSubBits+1)*histSub + histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // u in [2^exp, 2^(exp+1))
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(u>>(uint(exp)-histSubBits)) - histSub
	return (exp-histSubBits+1)*histSub + sub
}

// histMid is the midpoint of bucket i, the value quantiles report.
func histMid(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := i/histSub + histSubBits - 1
	sub := i % histSub
	width := float64(uint64(1) << (uint(exp) - histSubBits))
	return float64(uint64(1)<<uint(exp)) + (float64(sub)+0.5)*width
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram). It uses the nearest-rank rule on bucket midpoints.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n-1)) + 1
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return histMid(i)
		}
	}
	return histMid(histBuckets - 1)
}
