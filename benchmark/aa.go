package main

import (
	"context"
	"fmt"
	"io"
)

// runAA runs the end-to-end pass of every selected workload twice and
// checks each pair of readings against the metric's bound: the bound
// is both how much a metric may worsen before it counts as a
// regression and how much two runs of the same code may differ.
func runAA(ctx context.Context, o *options, stdout, stderr io.Writer) int {
	o.trace = 0
	var sets [2][]*result
	for i := range sets {
		rs, err := runAll(ctx, o, io.Discard)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		sets[i] = rs
	}
	code := 0
	fmt.Fprintf(stdout, "\n%-16s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric", "run A", "run B", "diff", "bound", "")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd {
			va, vb := a.metrics[d.name].Value, b.metrics[d.name].Value
			diff := 0.0
			if m := min(va, vb); m > 0 {
				diff = (max(va, vb) - m) / m
			}
			verdict := "PASS"
			if diff > d.bound {
				verdict, code = "FAIL", 1
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.4f %14.4f %7.1f%% %5.0f%%  %s\n",
				a.workload, d.name, va, vb, 100*diff, 100*d.bound, verdict)
		}
	}
	return code
}
