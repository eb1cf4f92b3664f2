package experiments

import (
	"testing"

	"dlpt/internal/stats"
)

// table1Reference pins, per Table 1 cell, the mean and the 95 %
// confidence half-width of the paired per-seed gain in satisfied share
// over NoLB (percent) that internal/sim, the separate per-unit loop
// over a bare core.Network that Run replaced, measured at paper scale
// over seeds 1..20.
var table1Reference = []struct {
	load     float64
	dynamic  bool
	strategy string
	mean, ci float64
}{
	{0.16, false, "MLT", 97.92, 20.95},
	{0.16, false, "KC", 27.14, 10.73},
	{0.16, true, "MLT", 83.09, 10.36},
	{0.16, true, "KC", 56.02, 9.88},
	{0.40, false, "MLT", 133.73, 23.41},
	{0.40, false, "KC", 22.89, 12.65},
	{0.40, true, "MLT", 114.10, 13.88},
	{0.40, true, "KC", 58.29, 10.72},
}

// TestTable1MatchesSimReference runs Table 1's stable and dynamic
// scenarios at 16 % and 40 % load over seeds 1..20 and requires every
// cell's 95 % interval of the paired gain to overlap the reference's.
// Paper scale only: at the quick scale's 24 peers 2 % churn rounds to
// no joins at all.
func TestTable1MatchesSimReference(t *testing.T) {
	const seeds = 20
	share := func(load float64, dynamic bool, strategy string, seed int64) float64 {
		cfg := baseConfig(false)
		cfg.Seed, cfg.Runs = seed, 1
		cfg.LoadFraction = load
		cfg.Strategy = strategy
		cfg.JoinFraction, cfg.LeaveFraction = stableChurn, stableChurn
		if dynamic {
			cfg.JoinFraction, cfg.LeaveFraction = churn, churn
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.TotalSatisfied) / float64(res.TotalSent)
	}
	for _, ref := range table1Reference {
		var gain stats.Accumulator
		for s := int64(1); s <= seeds; s++ {
			base := share(ref.load, ref.dynamic, "NoLB", s)
			gain.Add(100 * (share(ref.load, ref.dynamic, ref.strategy, s)/base - 1))
		}
		t.Logf("load %.2f dynamic %v %s: %+.2f ± %.2f (reference %+.2f ± %.2f)",
			ref.load, ref.dynamic, ref.strategy, gain.Mean(), gain.CI95(), ref.mean, ref.ci)
		if d := gain.Mean() - ref.mean; d > gain.CI95()+ref.ci || -d > gain.CI95()+ref.ci {
			t.Errorf("load %.2f dynamic %v %s: %+.2f ± %.2f does not overlap the reference %+.2f ± %.2f",
				ref.load, ref.dynamic, ref.strategy, gain.Mean(), gain.CI95(), ref.mean, ref.ci)
		}
	}
}
