package experiments

import (
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/workload"
)

// smallConfig returns a fast, validated configuration for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Runs = 2
	cfg.TimeUnits = 12
	cfg.NumPeers = 20
	cfg.NumKeys = 120
	cfg.GrowUnits = 4
	cfg.LoadFraction = 0.2
	cfg.Validate = true
	return cfg
}

func TestRunRejectsBadConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"Runs=0":           func(c *Config) { c.Runs = 0 },
		"TimeUnits=0":      func(c *Config) { c.TimeUnits = 0 },
		"NumPeers=1":       func(c *Config) { c.NumPeers = 1 },
		"unknown strategy": func(c *Config) { c.Strategy = "bogus" },
	} {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s must fail", name)
		}
	}
}

func TestStableRunBaseline(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfaction.Len() != 12 {
		t.Fatalf("series length = %d", res.Satisfaction.Len())
	}
	if res.TotalSent == 0 || res.TotalSatisfied == 0 {
		t.Fatalf("no traffic: sent=%d sat=%d", res.TotalSent, res.TotalSatisfied)
	}
	if res.TotalSatisfied > res.TotalSent {
		t.Fatalf("satisfied %d > sent %d", res.TotalSatisfied, res.TotalSent)
	}
	if ss := res.SteadyStateSatisfaction(); ss <= 0 || ss > 100 {
		t.Fatalf("steady-state satisfaction = %v", ss)
	}
}

func TestGrowthPhasePopulatesAllKeys(t *testing.T) {
	cfg := smallConfig()
	cfg.Runs = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The per-unit series is defined up to the last unit, one
	// observation per run.
	if n := res.Satisfaction.At(cfg.TimeUnits - 1).N(); n != 1 {
		t.Fatalf("last unit aggregates %d runs, want 1", n)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Runs = 1
	cfg.JoinFraction, cfg.LeaveFraction = 0.1, 0.1
	cfg.Strategy = "KC"
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	am, bm := a.Satisfaction.Means(), b.Satisfaction.Means()
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("non-deterministic at unit %d: %v vs %v", i, am[i], bm[i])
		}
	}
	if a.TotalSent != b.TotalSent {
		t.Fatalf("TotalSent differs: %d vs %d", a.TotalSent, b.TotalSent)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	cfg.Runs = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 999
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSent == b.TotalSent && a.TotalSatisfied == b.TotalSatisfied {
		t.Fatalf("seeds 1 and 999 produced identical totals: sent=%d sat=%d",
			a.TotalSent, a.TotalSatisfied)
	}
}

func TestAllStrategiesRunClean(t *testing.T) {
	for _, s := range []string{"NoLB", "MLT", "KC", "EqualLoad"} {
		cfg := smallConfig()
		cfg.Strategy = s
		cfg.JoinFraction = 0.05
		cfg.LeaveFraction = 0.05
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("strategy %s: %v", s, err)
		}
		if res.TotalSatisfied == 0 {
			t.Fatalf("strategy %s satisfied nothing", s)
		}
	}
}

func TestMLTBeatsNoLBUnderOverload(t *testing.T) {
	base := smallConfig()
	base.Runs = 3
	base.TimeUnits = 20
	base.LoadFraction = 1.5 // demand beyond aggregate capacity
	base.Validate = false

	run := func(strategy string) float64 {
		cfg := base
		cfg.Strategy = strategy
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.SteadyStateSatisfaction()
	}
	nolb := run("NoLB")
	mlt := run("MLT")
	t.Logf("steady-state satisfaction: NoLB=%.1f%% MLT=%.1f%%", nolb, mlt)
	if mlt <= nolb {
		t.Fatalf("MLT (%.2f%%) must beat NoLB (%.2f%%) under overload", mlt, nolb)
	}
}

func TestChurnKeepsRunning(t *testing.T) {
	cfg := smallConfig()
	cfg.JoinFraction = 0.1
	cfg.LeaveFraction = 0.1
	cfg.Strategy = "KC"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSatisfied == 0 {
		t.Fatalf("no request satisfied under churn")
	}
}

func TestHotSpotPicker(t *testing.T) {
	cfg := smallConfig()
	cfg.TimeUnits = 20
	cfg.Picker = &workload.HotSpot{Phases: []workload.Phase{
		{From: 8, To: 16, Prefix: "s3l", Bias: 0.9},
	}}
	cfg.Strategy = "MLT"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSatisfied == 0 {
		t.Fatalf("no request satisfied")
	}
}

func TestHashedPlacementRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Placement = core.PlacementHashed
	cfg.JoinFraction = 0.05
	cfg.LeaveFraction = 0.05
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The hashed mapping destroys locality: physical hops should be
	// close to logical hops on average.
	lg := res.Logical.OverallMean(4, 12)
	ph := res.Physical.OverallMean(4, 12)
	if lg == 0 {
		t.Fatalf("no hops recorded")
	}
	if ph < 0.5*lg {
		t.Fatalf("hashed mapping physical hops %v suspiciously low vs logical %v", ph, lg)
	}
}

func TestLexicographicLocality(t *testing.T) {
	cfg := smallConfig()
	cfg.Strategy = "MLT"
	lex, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement = core.PlacementHashed
	cfg.Strategy = "NoLB"
	hsh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lexPhys := lex.Physical.OverallMean(4, 12)
	hshPhys := hsh.Physical.OverallMean(4, 12)
	t.Logf("physical hops: lexico+MLT=%.2f hashed=%.2f", lexPhys, hshPhys)
	if lexPhys >= hshPhys {
		t.Fatalf("lexicographic mapping must reduce physical hops (%.2f vs %.2f)",
			lexPhys, hshPhys)
	}
}
