package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"dlpt/engine"
	"dlpt/engine/local"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/stats"
	"dlpt/internal/workload"
)

// Peer heterogeneity: capacities are uniform in [capacityBase,
// capacityBase*capacityRatio] (paper: "the ratio between the most and
// the least powerful peers is 4").
const (
	capacityBase  = 10
	capacityRatio = 4
)

// Config parameterizes one experiment of the paper's discrete-time
// evaluation (RR-6557 Section 4). The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Seed      int64
	Runs      int
	TimeUnits int

	// NumPeers is the initial ring size (the paper uses ~100).
	NumPeers int
	// NumKeys services from GridCorpus(NumKeys) are declared during
	// the first GrowUnits units (the paper's trees hold ~1000 nodes;
	// "the first 10 units correspond to the period where the prefix
	// tree is growing").
	NumKeys   int
	GrowUnits int

	// LoadFraction is the ratio between the processing demand of the
	// requests sent per unit and the aggregated capacity of all peers
	// (the left column of Table 1: 5%..80%). A discovery request
	// consumes one capacity unit per node visit, so a unit sends
	// LoadFraction * capacity / visitsPerRequest requests, tracking
	// the measured visit count of the previous unit. Values above 1
	// stress the system beyond its total capacity (Figure 5).
	LoadFraction float64

	// Strategy names the load-balancing heuristic (lb.ByName): it runs
	// every unit over every peer and places the joining peers.
	Strategy string

	// JoinFraction / LeaveFraction are the per-unit churn rates; the
	// paper's dynamic scenario replaces ~10% of the peers per unit.
	JoinFraction  float64
	LeaveFraction float64

	// Picker selects requested services (nil = uniform).
	Picker workload.Picker

	// Placement selects the tree-to-peer mapping. The hashed mapping
	// has no join placement: its joiners draw uniform ids.
	Placement core.Placement

	// Validate runs the full overlay invariant check after every time
	// unit (slow; used by tests).
	Validate bool
}

// DefaultConfig returns the paper's baseline parameters: 100 peers,
// 1000 keys grown over 10 units, 50 units, uniform requests, stable
// network, no load balancing.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Runs:         1,
		TimeUnits:    50,
		NumPeers:     100,
		NumKeys:      1000,
		GrowUnits:    10,
		LoadFraction: 0.10,
		Strategy:     "NoLB",
		Placement:    core.PlacementLexicographic,
	}
}

// Result aggregates per-unit series over all runs.
type Result struct {
	Config Config
	// Satisfaction is the per-unit satisfied-request percentage.
	Satisfaction *stats.Series
	// Logical / Physical are per-unit mean hops per satisfied request.
	Logical  *stats.Series
	Physical *stats.Series
	// LBMoves is the per-unit number of applied balancing moves.
	LBMoves *stats.Series
	// LoadGini is the per-unit Gini coefficient of per-peer
	// utilization (requests received / capacity): 0 means perfectly
	// proportional load, values near 1 mean the load concentrates on
	// few peers.
	LoadGini *stats.Series
	// TotalSent / TotalSatisfied accumulate over all runs and units.
	TotalSent      int
	TotalSatisfied int
}

// SteadyStateSatisfaction averages satisfaction over the units after
// the growth phase.
func (res *Result) SteadyStateSatisfaction() float64 {
	return res.Satisfaction.OverallMean(res.Config.GrowUnits, res.Satisfaction.Len())
}

// Run executes cfg.Runs independent runs, seeded Seed, Seed+1, ...,
// and aggregates them. Runs are deterministic given their seed.
func Run(cfg Config) (*Result, error) {
	if cfg.Runs < 1 {
		return nil, fmt.Errorf("experiments: Runs = %d", cfg.Runs)
	}
	if cfg.TimeUnits < 1 {
		return nil, fmt.Errorf("experiments: TimeUnits = %d", cfg.TimeUnits)
	}
	if cfg.NumPeers < 2 {
		return nil, fmt.Errorf("experiments: NumPeers = %d (need >= 2)", cfg.NumPeers)
	}
	res := &Result{
		Config:       cfg,
		Satisfaction: stats.NewSeries(cfg.TimeUnits),
		Logical:      stats.NewSeries(cfg.TimeUnits),
		Physical:     stats.NewSeries(cfg.TimeUnits),
		LBMoves:      stats.NewSeries(cfg.TimeUnits),
		LoadGini:     stats.NewSeries(cfg.TimeUnits),
	}
	for i := 0; i < cfg.Runs; i++ {
		if err := res.runOnce(cfg.Seed + int64(i)); err != nil {
			return nil, fmt.Errorf("experiments: run %d: %w", i, err)
		}
	}
	return res, nil
}

// newEngine starts the run's overlay: the initial peers on the
// capacity-gated local engine, joiners placed by the strategy. The
// engine draws from a seed of its own, so its peer ids and entry
// points do not replay the run's capacity and request draws.
func newEngine(ctx context.Context, cfg Config, r *rand.Rand) (*local.Engine, error) {
	seed := r.Int63()
	caps := workload.Capacities(r, cfg.NumPeers, capacityBase, capacityRatio)
	if cfg.Placement != core.PlacementHashed {
		return local.New(engine.Config{
			Alphabet:      keys.LowerAlnum,
			Capacities:    caps,
			Seed:          seed,
			JoinPlacement: cfg.Strategy,
			GateCapacity:  true,
		})
	}
	// engine.Config has no tree-to-peer mapping: wrap a hashed network
	// and gate it before its first operation.
	eng := local.Wrap(core.NewNetwork(keys.LowerAlnum, core.PlacementHashed), seed)
	eng.Cluster().Gate = true
	for _, c := range caps {
		if _, err := eng.AddPeer(ctx, c); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// runOnce executes a single seeded run and adds its per-unit values to
// the series. Each time unit performs the five steps of Section 4:
// (1) every peer runs the periodic load balancing, (2) a fraction of
// peers joins, (3) a fraction of peers leaves, (4) new services are
// declared during the growth phase, (5) discovery requests are sent;
// Tick then ends the unit.
func (res *Result) runOnce(seed int64) error {
	cfg := res.Config
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed))
	eng, err := newEngine(ctx, cfg, r)
	if err != nil {
		return err
	}
	defer eng.Close()
	picker := cfg.Picker
	if picker == nil {
		picker = workload.Uniform{}
	}
	pending := workload.GridCorpus(cfg.NumKeys)
	r.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
	growUnits := max(cfg.GrowUnits, 1)

	var available []keys.Key
	sat := make([]float64, cfg.TimeUnits)
	logical := make([]float64, cfg.TimeUnits)
	physical := make([]float64, cfg.TimeUnits)
	moves := make([]float64, cfg.TimeUnits)
	gini := make([]float64, cfg.TimeUnits)
	// visitEst estimates node visits per request (logical hops + the
	// destination visit) from the previous unit, so that LoadFraction
	// expresses demand relative to aggregate capacity.
	visitEst := 5.0
	for t := 0; t < cfg.TimeUnits; t++ {
		// Step 1: periodic load balancing.
		n, err := eng.Balance(ctx, cfg.Strategy)
		if err != nil {
			return err
		}
		moves[t] = float64(n)

		// Step 2: peer joins.
		nJoin := int(cfg.JoinFraction * float64(eng.NumPeers()))
		for _, c := range workload.Capacities(r, nJoin, capacityBase, capacityRatio) {
			if _, err := eng.AddPeer(ctx, c); err != nil {
				return err
			}
		}

		// Step 3: peer leaves (never below 2 peers).
		nLeave := int(cfg.LeaveFraction * float64(eng.NumPeers()))
		peers, err := eng.Peers(ctx)
		if err != nil {
			return err
		}
		for i := 0; i < nLeave && len(peers) > 2; i++ {
			j := r.Intn(len(peers))
			if err := eng.RemovePeer(ctx, peers[j].ID); err != nil {
				return err
			}
			peers = slices.Delete(peers, j, j+1)
		}

		// Step 4: declare new services during the growth phase.
		if t < growUnits && len(pending) > 0 {
			per := (len(pending) + growUnits - t - 1) / (growUnits - t)
			for _, k := range pending[:per] {
				if err := eng.Register(ctx, string(k), string(k)); err != nil {
					return err
				}
			}
			available = append(available, pending[:per]...)
			pending = pending[per:]
		}

		// Step 5: discovery requests; a saturated peer drops one.
		sent, satisfied, lHops, pHops := 0, 0, 0, 0
		if len(available) > 0 {
			capacity := 0
			for _, p := range peers {
				capacity += p.Capacity
			}
			nReq := max(int(cfg.LoadFraction*float64(capacity)/visitEst), 1)
			for ; sent < nReq; sent++ {
				d, err := eng.Discover(ctx, string(picker.Pick(r, available, t)))
				if errors.Is(err, engine.ErrSaturated) {
					continue
				}
				if err != nil {
					return err
				}
				if d.Found {
					satisfied++
					lHops += d.LogicalHops
					pHops += d.PhysicalHops
				}
			}
		}
		res.TotalSent += sent
		res.TotalSatisfied += satisfied
		if sent > 0 {
			sat[t] = 100 * float64(satisfied) / float64(sent)
		}
		if satisfied > 0 {
			logical[t] = float64(lHops) / float64(satisfied)
			physical[t] = float64(pHops) / float64(satisfied)
			visitEst = logical[t] + 1
		}

		if err := eng.Tick(ctx); err != nil {
			return err
		}
		// After Tick a peer's Load is its load in the unit just ended.
		if peers, err = eng.Peers(ctx); err != nil {
			return err
		}
		util := make([]float64, len(peers))
		for i, p := range peers {
			util[i] = float64(p.Load) / float64(p.Capacity)
		}
		gini[t] = stats.Gini(util)
		if cfg.Validate {
			if err := eng.Validate(ctx); err != nil {
				return fmt.Errorf("unit %d: %w", t, err)
			}
		}
	}
	return errors.Join(res.Satisfaction.Add(sat), res.Logical.Add(logical),
		res.Physical.Add(physical), res.LBMoves.Add(moves), res.LoadGini.Add(gini))
}
