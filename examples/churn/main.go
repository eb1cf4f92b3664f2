// Churn: the paper's dynamic-network scenario — 10% of the peers are
// replaced every time unit — comparing k-choices placement (KC),
// which balances at join time and therefore shines under churn, with
// MLT and no balancing.
package main

import (
	"fmt"
	"log"

	"dlpt/internal/experiments"
)

func main() {
	base := experiments.DefaultConfig()
	base.Runs = 5
	base.NumPeers = 40
	base.NumKeys = 400
	base.GrowUnits = 5
	base.TimeUnits = 40
	base.LoadFraction = 0.4
	base.JoinFraction = 0.10
	base.LeaveFraction = 0.10

	fmt.Println("dynamic network: 10% of peers replaced per time unit, 40% load")
	fmt.Printf("%-6s  %-24s  %-18s\n", "LB", "steady-state satisfied", "balancing moves/unit")
	for _, strategy := range []string{"MLT", "KC", "NoLB"} {
		cfg := base
		cfg.Strategy = strategy
		res, err := experiments.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		moves := 0.0
		for _, v := range res.LBMoves.Means() {
			moves += v
		}
		moves /= float64(cfg.TimeUnits)
		fmt.Printf("%-6s  %21.1f%%  %18.1f\n",
			strategy, res.SteadyStateSatisfaction(), moves)
	}
	fmt.Println("\nKC balances at join time, so a churning network keeps it")
	fmt.Println("effective without periodic balancing traffic (paper Figs. 6-7).")
}
