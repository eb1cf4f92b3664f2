package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"dlpt/internal/core"
	"dlpt/internal/dht"
	"dlpt/internal/keys"
	"dlpt/internal/metrics"
	"dlpt/internal/pgrid"
	"dlpt/internal/pht"
	"dlpt/internal/workload"
)

// table2Scale holds the population sizes of the comparison.
type table2Scale struct {
	peers, nkeys, lookups int
}

func scaleFor(quick bool) table2Scale {
	if quick {
		return table2Scale{peers: 24, nkeys: 150, lookups: 150}
	}
	return table2Scale{peers: 128, nkeys: 1000, lookups: 1000}
}

// Table2 measures, on implementations of all three systems, the
// quantities the paper compares analytically: routing cost per query
// and local state per peer. D is the maximal identifier length, P the
// peer count, |Π| the number of P-Grid partitions, A the alphabet.
func Table2(quick bool, seed int64) (*metrics.Table, error) {
	sc := scaleFor(quick)
	rng := rand.New(rand.NewSource(seed + 6))
	corpus := workload.GridCorpus(sc.nkeys)
	maxLen := 0
	for _, k := range corpus {
		if k.Len() > maxLen {
			maxLen = k.Len()
		}
	}

	// --- DLPT ---------------------------------------------------------
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for i := 0; i < sc.peers; i++ {
		id := keys.LowerAlnum.RandomKey(rng, 12, 12)
		if err := net.JoinPeer(id, 1<<30, rng); err != nil {
			return nil, err
		}
	}
	for _, k := range corpus {
		if err := net.InsertKey(k, rng); err != nil {
			return nil, err
		}
	}
	dlptHops := 0.0
	for i := 0; i < sc.lookups; i++ {
		res := net.DiscoverRandom(corpus[rng.Intn(len(corpus))], false, rng)
		if !res.Satisfied {
			return nil, fmt.Errorf("table2: DLPT lost key")
		}
		dlptHops += float64(res.LogicalHops)
	}
	dlptHops /= float64(sc.lookups)
	// Local state: per peer, hosted nodes' child+father references.
	dlptState := 0.0
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		for _, n := range p.Nodes() {
			dlptState += float64(len(n.Children) + 1)
		}
	}
	dlptState /= float64(net.NumPeers())

	// --- PHT over Chord -------------------------------------------------
	ring := dht.New()
	for i := 0; i < sc.peers; i++ {
		if _, err := ring.Join(fmt.Sprintf("pht-peer-%04d", i)); err != nil {
			return nil, err
		}
	}
	ph, err := pht.New(ring, 64, 8, rng)
	if err != nil {
		return nil, err
	}
	for _, k := range corpus {
		if err := ph.Insert(k); err != nil {
			return nil, err
		}
	}
	h0 := ph.Counters.RoutingHops
	for i := 0; i < sc.lookups; i++ {
		found, err := ph.Lookup(corpus[rng.Intn(len(corpus))])
		if err != nil || !found {
			return nil, fmt.Errorf("table2: PHT lost key: %v", err)
		}
	}
	phtHops := float64(ph.Counters.RoutingHops-h0) / float64(sc.lookups)
	// Local state: stored trie vertices + finger entries per node.
	phtState := 0.0
	for _, n := range ring.Nodes() {
		phtState += float64(len(n.Data)) + math.Log2(float64(sc.peers))
	}
	phtState /= float64(ring.Len())

	// --- P-Grid ----------------------------------------------------------
	var names []string
	for i := 0; i < sc.peers; i++ {
		names = append(names, fmt.Sprintf("pgrid-peer-%04d", i))
	}
	grid, err := pgrid.Build(pgrid.Config{D: 64, MaxKeysPerLeaf: 1 + sc.nkeys/sc.peers, RefsPerLevel: 2},
		names, corpus, rng)
	if err != nil {
		return nil, err
	}
	gridHops := 0.0
	for i := 0; i < sc.lookups; i++ {
		found, hops, err := grid.Lookup(corpus[rng.Intn(len(corpus))])
		if err != nil || !found {
			return nil, fmt.Errorf("table2: P-Grid lost key: %v", err)
		}
		gridHops += float64(hops)
	}
	gridHops /= float64(sc.lookups)
	gridState := grid.AvgRoutingState()

	tb := metrics.NewTable(
		fmt.Sprintf("Table 2: complexities of close trie-structured approaches "+
			"(P=%d, N=%d keys, D=%d, |Pi|=%d)",
			sc.peers, sc.nkeys, maxLen, grid.NumPartitions()),
		"Functionality", "P-Grid", "PHT", "DLPT")
	tb.AddRow("Tree routing (analytic)", "O(log |Pi|)", "O(D log P)", "O(D)")
	tb.AddRow("Tree routing (measured hops/query)",
		metrics.F2(gridHops), metrics.F2(phtHops), metrics.F2(dlptHops))
	tb.AddRow("Local state (analytic)", "O(log |Pi|)", "|N|/|P| |A|", "|N|/|P| |A|")
	tb.AddRow("Local state (measured refs/peer)",
		metrics.F2(gridState), metrics.F2(phtState), metrics.F2(dlptState))
	return tb, nil
}

// AblationObjective quantifies the value of MLT's throughput
// objective over capacity-blind item balancing (the DHT heuristics of
// Section 5 assume homogeneous peers): the same boundary-move
// machinery run with the |L_P - L_S|-minimising objective (EqualLoad)
// against MLT and no balancing, on the stable overload scenario with
// the paper's 4x capacity heterogeneity. Reported per strategy:
// steady-state satisfaction and the Gini coefficient of per-peer
// utilization.
func AblationObjective(quick bool, seed int64) (*metrics.Table, error) {
	cfg := baseConfig(quick)
	cfg.Seed = seed
	cfg.LoadFraction = highLoad
	cfg.JoinFraction = stableChurn
	cfg.LeaveFraction = stableChurn
	tb := metrics.NewTable(
		"Ablation: MLT objective vs capacity-blind item balancing and "+
			"semi-centralized scheduling (overload, capacity ratio 4)",
		"Strategy", "Satisfied (steady state)", "Utilization Gini", "Moves/unit")
	for _, strategy := range []string{"MLT", "EqualLoad", "Directory", "NoLB"} {
		c := cfg
		c.Strategy = strategy
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("objective/%s: %w", strategy, err)
		}
		moves := 0.0
		for _, v := range res.LBMoves.Means() {
			moves += v
		}
		tb.AddRow(strategy,
			metrics.Pct(res.SteadyStateSatisfaction()),
			metrics.F2(res.LoadGini.OverallMean(c.GrowUnits, res.LoadGini.Len())),
			metrics.F2(moves/float64(c.TimeUnits)))
	}
	return tb, nil
}

// AblationMaintenance quantifies the paper's first contribution (the
// avoidance of the DHT): protocol messages per peer join and per key
// insert for the self-contained DLPT versus the DHT-backed designs
// (the hashed-mapping DLPT of [5] and PHT over Chord).
func AblationMaintenance(quick bool, seed int64) (*metrics.Table, error) {
	sc := scaleFor(quick)
	nJoins := sc.peers / 2
	nInserts := sc.nkeys / 2
	corpus := workload.GridCorpus(sc.nkeys)

	type cost struct{ perJoin, perInsert float64 }
	measureDLPT := func(placement core.Placement) (cost, error) {
		rng := rand.New(rand.NewSource(seed + 10))
		net := core.NewNetwork(keys.LowerAlnum, placement)
		for i := 0; i < sc.peers; i++ {
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(rng, 12, 12), 1<<30, rng); err != nil {
				return cost{}, err
			}
		}
		for _, k := range corpus[:sc.nkeys/2] {
			if err := net.InsertKey(k, rng); err != nil {
				return cost{}, err
			}
		}
		before := net.Counters.MaintenanceMsgs
		for i := 0; i < nJoins; i++ {
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(rng, 12, 12), 1<<30, rng); err != nil {
				return cost{}, err
			}
		}
		joinCost := float64(net.Counters.MaintenanceMsgs-before) / float64(nJoins)
		before = net.Counters.MaintenanceMsgs
		for _, k := range corpus[sc.nkeys/2 : sc.nkeys/2+nInserts] {
			if err := net.InsertKey(k, rng); err != nil {
				return cost{}, err
			}
		}
		insertCost := float64(net.Counters.MaintenanceMsgs-before) / float64(nInserts)
		return cost{joinCost, insertCost}, nil
	}

	lex, err := measureDLPT(core.PlacementLexicographic)
	if err != nil {
		return nil, err
	}
	hsh, err := measureDLPT(core.PlacementHashed)
	if err != nil {
		return nil, err
	}

	// PHT over Chord: join cost = Chord join (lookup + finger repairs);
	// insert cost = PHT insert's DHT traffic.
	rng := rand.New(rand.NewSource(seed + 12))
	ring := dht.New()
	for i := 0; i < sc.peers; i++ {
		if _, err := ring.Join(fmt.Sprintf("peer-%04d", i)); err != nil {
			return nil, err
		}
	}
	ph, err := pht.New(ring, 64, 8, rng)
	if err != nil {
		return nil, err
	}
	for _, k := range corpus[:sc.nkeys/2] {
		if err := ph.Insert(k); err != nil {
			return nil, err
		}
	}
	before := ring.Counters.MaintenanceMsgs
	for i := 0; i < nJoins; i++ {
		if _, err := ring.Join(fmt.Sprintf("late-peer-%04d", i)); err != nil {
			return nil, err
		}
	}
	phtJoin := float64(ring.Counters.MaintenanceMsgs-before) / float64(nJoins)
	beforeHops := ph.Counters.RoutingHops
	for _, k := range corpus[sc.nkeys/2 : sc.nkeys/2+nInserts] {
		if err := ph.Insert(k); err != nil {
			return nil, err
		}
	}
	phtInsert := float64(ph.Counters.RoutingHops-beforeHops) / float64(nInserts)

	tb := metrics.NewTable(
		fmt.Sprintf("Ablation: maintenance cost (messages per operation, P=%d, N=%d)",
			sc.peers, sc.nkeys),
		"Operation", "DLPT self-contained", "DLPT over DHT [5]", "PHT over Chord")
	tb.AddRow("Peer join", metrics.F2(lex.perJoin), metrics.F2(hsh.perJoin), metrics.F2(phtJoin))
	tb.AddRow("Key insert", metrics.F2(lex.perInsert), metrics.F2(hsh.perInsert), metrics.F2(phtInsert))
	return tb, nil
}
