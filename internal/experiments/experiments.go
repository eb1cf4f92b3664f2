// Package experiments defines one runnable reproduction per table and
// figure of the paper's evaluation (RR-6557 Section 4 and 5), mapping
// each to the per-unit loop (Run, in run.go) with the paper's
// parameters. The loop drives engine/local through the engine.Engine
// contract, so the figures exercise the runtime a deployment runs.
// Every experiment exists in two scales: the paper scale (100 peers,
// 1000 keys, 30-100 runs) and a quick scale for tests and benchmarks.
package experiments

import (
	"fmt"
	"io"

	"dlpt/internal/core"
	"dlpt/internal/metrics"
	"dlpt/internal/workload"
)

// Variant is one curve of a figure.
type Variant struct {
	Name      string
	Strategy  string
	Placement core.Placement
}

// Spec is a figure experiment: a base configuration and the variants
// (curves) run against it.
type Spec struct {
	ID       string
	Title    string
	Base     Config
	Variants []Variant
}

// paperVariants are the three curves of Figures 4-8.
func paperVariants() []Variant {
	return []Variant{
		{Name: "MLT", Strategy: "MLT"},
		{Name: "KC", Strategy: "KC"},
		{Name: "NoLB", Strategy: "NoLB"},
	}
}

// baseConfig returns the shared Section 4 parameters at the requested
// scale.
func baseConfig(quick bool) Config {
	cfg := DefaultConfig()
	if quick {
		cfg.Runs = 2
		cfg.NumPeers = 24
		cfg.NumKeys = 150
		cfg.GrowUnits = 4
		cfg.TimeUnits = 16
	} else {
		cfg.Runs = 30
		cfg.NumPeers = 100
		cfg.NumKeys = 1000
		cfg.GrowUnits = 10
		cfg.TimeUnits = 50
	}
	return cfg
}

const (
	// lowLoad keeps demand well under the aggregate capacity; the
	// overload scenarios of Figures 5 and 7 send "a very high number
	// of requests, in order to stress the system" — 80% of the
	// aggregate capacity (the top of Table 1's load range), beyond
	// what the unbalanced system can serve.
	lowLoad  = 0.10
	highLoad = 0.80
	// The paper's "stable" network has joins/leaves "intentionally
	// low" (not zero — KC still acts at joins); the dynamic scenario
	// replaces ~10% of the peers per unit.
	stableChurn = 0.02
	churn       = 0.10
)

// Figure4 is the stable-network, low-load satisfaction comparison.
func Figure4(quick bool) Spec {
	cfg := baseConfig(quick)
	cfg.LoadFraction = lowLoad
	cfg.JoinFraction = stableChurn
	cfg.LeaveFraction = stableChurn
	return Spec{
		ID:       "fig4",
		Title:    "Figure 4: load balancing - stable network - no overload",
		Base:     cfg,
		Variants: paperVariants(),
	}
}

// Figure5 stresses the stable network with a very high request count.
func Figure5(quick bool) Spec {
	cfg := baseConfig(quick)
	cfg.LoadFraction = highLoad
	cfg.JoinFraction = stableChurn
	cfg.LeaveFraction = stableChurn
	return Spec{
		ID:       "fig5",
		Title:    "Figure 5: load balancing - stable network - overload",
		Base:     cfg,
		Variants: paperVariants(),
	}
}

// Figure6 is the dynamic-network (10% churn) low-load comparison.
func Figure6(quick bool) Spec {
	cfg := baseConfig(quick)
	cfg.LoadFraction = lowLoad
	cfg.JoinFraction = churn
	cfg.LeaveFraction = churn
	return Spec{
		ID:       "fig6",
		Title:    "Figure 6: comparing LB algorithms - dynamic network - no overload",
		Base:     cfg,
		Variants: paperVariants(),
	}
}

// Figure7 is the dynamic-network overload comparison.
func Figure7(quick bool) Spec {
	cfg := baseConfig(quick)
	cfg.LoadFraction = highLoad
	cfg.JoinFraction = churn
	cfg.LeaveFraction = churn
	return Spec{
		ID:       "fig7",
		Title:    "Figure 7: comparing LB algorithms - dynamic network - overload",
		Base:     cfg,
		Variants: paperVariants(),
	}
}

// Figure8 creates moving hot spots: uniform, then the S3L subtree
// (t in [40,80)), then the ScaLAPACK subtree (t in [80,120)), then
// uniform again, over 160 units on a dynamic network.
func Figure8(quick bool) Spec {
	cfg := baseConfig(quick)
	cfg.LoadFraction = 0.4
	cfg.JoinFraction = churn / 2
	cfg.LeaveFraction = churn / 2
	if quick {
		cfg.TimeUnits = 40
		cfg.Picker = &workload.HotSpot{Phases: []workload.Phase{
			{From: 10, To: 20, Prefix: "s3l", Bias: 0.9},
			{From: 20, To: 30, Prefix: "p", Bias: 0.9},
		}}
	} else {
		cfg.Runs = 50
		cfg.TimeUnits = 160
		cfg.Picker = workload.Figure8Schedule()
	}
	return Spec{
		ID:       "fig8",
		Title:    "Figure 8: load balancing - dynamic network - hot spots",
		Base:     cfg,
		Variants: paperVariants(),
	}
}

// Zipf measures satisfaction under skewed service popularity (the
// abstract's "changing popularity of the services requested by
// users"): requests follow a Zipf law over the key ranking instead of
// the uniform draw of Figures 4-7. An extension experiment; the paper
// evaluates popularity skew only through the Figure 8 hot spots.
func Zipf(quick bool) Spec {
	cfg := baseConfig(quick)
	cfg.LoadFraction = 0.4
	cfg.JoinFraction = stableChurn
	cfg.LeaveFraction = stableChurn
	cfg.Picker = workload.Zipf{S: 1.3}
	return Spec{
		ID:       "zipf",
		Title:    "Extension: load balancing under Zipf service popularity",
		Base:     cfg,
		Variants: paperVariants(),
	}
}

// RunSpec executes every variant of a figure and assembles the
// satisfaction time-series dataset (mean and stddev per curve).
func RunSpec(spec Spec) (*metrics.Dataset, error) {
	index := make([]float64, spec.Base.TimeUnits)
	for i := range index {
		index[i] = float64(i)
	}
	ds := metrics.NewDataset(spec.Title, "time", index)
	for _, v := range spec.Variants {
		cfg := spec.Base
		cfg.Strategy = v.Strategy
		cfg.Placement = v.Placement
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", spec.ID, v.Name, err)
		}
		if err := ds.AddColumn(v.Name, res.Satisfaction.Means()); err != nil {
			return nil, err
		}
		if err := ds.AddColumn(v.Name+"_sd", res.Satisfaction.StdDevs()); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// Figure9 measures the communication gain of the lexicographic
// mapping: average logical hops, physical hops under the random
// (hashed/DHT) mapping, and physical hops under the lexicographic
// mapping with MLT, on the Figure 8 hot-spot scenario.
func Figure9(quick bool) Spec {
	cfg := Figure8(quick).Base
	if !quick {
		cfg.Runs = 100
	}
	return Spec{
		ID:    "fig9",
		Title: "Figure 9: reduction of the communication by the lexicographic mapping",
		Base:  cfg,
		Variants: []Variant{
			{Name: "lexico+MLT", Strategy: "MLT", Placement: core.PlacementLexicographic},
			{Name: "random", Strategy: "NoLB", Placement: core.PlacementHashed},
		},
	}
}

// RunFigure9 runs the two placements of spec (a Figure9 spec) and
// assembles the three curves the paper plots.
func RunFigure9(spec Spec) (*metrics.Dataset, error) {
	index := make([]float64, spec.Base.TimeUnits)
	for i := range index {
		index[i] = float64(i)
	}
	ds := metrics.NewDataset(spec.Title, "time", index)

	lex := spec.Base
	lex.Strategy = "MLT"
	lex.Placement = core.PlacementLexicographic
	lexRes, err := Run(lex)
	if err != nil {
		return nil, err
	}
	rnd := spec.Base
	rnd.Strategy = "NoLB"
	rnd.Placement = core.PlacementHashed
	rndRes, err := Run(rnd)
	if err != nil {
		return nil, err
	}
	if err := ds.AddColumn("logical_hops", lexRes.Logical.Means()); err != nil {
		return nil, err
	}
	if err := ds.AddColumn("physical_random_mapping", rndRes.Physical.Means()); err != nil {
		return nil, err
	}
	if err := ds.AddColumn("physical_lexico_MLT", lexRes.Physical.Means()); err != nil {
		return nil, err
	}
	return ds, nil
}

// Table1Loads are the request/capacity ratios of Table 1.
var Table1Loads = []float64{0.05, 0.10, 0.16, 0.24, 0.40, 0.80}

// Table1 reproduces the gain summary: the percentage improvement in
// satisfied requests of MLT and KC over no load balancing, on stable
// and dynamic networks, per load level. Each cell's runs are seeded
// seed, seed+1, and so on.
func Table1(quick bool, seed int64) (*metrics.Table, error) {
	loads := Table1Loads
	if quick {
		loads = []float64{0.10, 0.40}
	}
	tb := metrics.NewTable(
		"Table 1: summary of gains of KC and MLT heuristics",
		"Load", "Stable MLT", "Stable KC", "Dynamic MLT", "Dynamic KC")
	for _, load := range loads {
		row := []string{fmt.Sprintf("%.0f%%", load*100)}
		for _, dynamic := range []bool{false, true} {
			var satisfied [3]int // MLT, KC, NoLB
			for i, strategy := range []string{"MLT", "KC", "NoLB"} {
				cfg := baseConfig(quick)
				cfg.Seed = seed
				cfg.LoadFraction = load
				cfg.Strategy = strategy
				if dynamic {
					cfg.JoinFraction = churn
					cfg.LeaveFraction = churn
				} else {
					cfg.JoinFraction = stableChurn
					cfg.LeaveFraction = stableChurn
				}
				res, err := Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("table1 load=%.2f %s: %w", load, strategy, err)
				}
				satisfied[i] = res.TotalSatisfied
			}
			base := satisfied[2]
			if base == 0 {
				base = 1
			}
			row = append(row,
				metrics.Pct(100*float64(satisfied[0]-satisfied[2])/float64(base)),
				metrics.Pct(100*float64(satisfied[1]-satisfied[2])/float64(base)))
		}
		// Reorder: stable MLT, stable KC, dynamic MLT, dynamic KC.
		tb.AddRow(row...)
	}
	return tb, nil
}

// WriteDataset renders ds in gnuplot format to w.
func WriteDataset(ds *metrics.Dataset, w io.Writer) error { return ds.WriteGnuplot(w) }
