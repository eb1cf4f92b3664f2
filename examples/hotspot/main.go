// Hotspot: a small-scale rendition of the paper's Figure 8 — a burst
// of requests concentrates on one subtree (the S3L library, then
// ScaLAPACK), and the MLT load balancer re-spreads the hot nodes over
// peers, recovering the satisfaction ratio. Run it to watch the
// adaptation unit by unit.
package main

import (
	"fmt"
	"log"

	"dlpt/internal/experiments"
	"dlpt/internal/workload"
)

func main() {
	base := experiments.DefaultConfig()
	base.Runs = 5
	base.NumPeers = 40
	base.NumKeys = 400
	base.GrowUnits = 5
	base.TimeUnits = 60
	base.LoadFraction = 0.4
	base.Picker = &workload.HotSpot{Phases: []workload.Phase{
		{From: 15, To: 30, Prefix: "s3l", Bias: 0.9},
		{From: 30, To: 45, Prefix: "p", Bias: 0.9},
	}}

	run := func(strategy string) *experiments.Result {
		cfg := base
		cfg.Strategy = strategy
		res, err := experiments.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	mlt := run("MLT")
	nolb := run("NoLB")

	fmt.Println("satisfied requests (%) per time unit — hot spots at t=15 (S3L) and t=30 (ScaLAPACK):")
	fmt.Printf("%4s  %8s  %8s\n", "t", "MLT", "NoLB")
	m, n := mlt.Satisfaction.Means(), nolb.Satisfaction.Means()
	for t := 5; t < base.TimeUnits; t += 2 {
		marker := ""
		switch t {
		case 15:
			marker = "  <- S3L hot spot begins"
		case 31:
			marker = "  <- ScaLAPACK hot spot begins"
		case 45:
			marker = "  <- uniform again"
		}
		fmt.Printf("%4d  %7.1f%%  %7.1f%%%s\n", t, m[t], n[t], marker)
	}
	fmt.Printf("\nsteady-state mean: MLT %.1f%%  NoLB %.1f%%\n",
		mlt.SteadyStateSatisfaction(), nolb.SteadyStateSatisfaction())
	moves := 0.0
	for _, v := range mlt.LBMoves.Means() {
		moves += v
	}
	fmt.Printf("MLT boundary moves per run: %.0f\n", moves)
}
