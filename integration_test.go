package dlpt

// Integration tests spanning the module: protocol core + load
// balancing + simulation + replication + comparators working
// together, at small scale with full invariant validation.
import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dlpt/engine/local"
	"dlpt/internal/attrs"
	"dlpt/internal/core"
	"dlpt/internal/dht"
	"dlpt/internal/experiments"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/pht"
	"dlpt/internal/transport"
	"dlpt/internal/workload"
)

// TestIntegrationLifecycles drives one overlay through its whole
// life: bootstrap, growth, balancing, churn, crash, recovery,
// queries — validating invariants at every phase boundary.
func TestIntegrationLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)

	// Phase 1: bootstrap 30 peers with heterogeneous capacities.
	caps := workload.Capacities(r, 30, 10, 4)
	for _, cp := range caps {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), cp, r); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: declare the grid catalogue.
	corpus := workload.GridCorpus(450)
	for _, k := range corpus {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("after growth: %v", err)
	}

	// Phase 3: traffic + MLT balancing rounds.
	picker := workload.Figure8Schedule()
	for unit := 0; unit < 8; unit++ {
		net.ResetUnit()
		for i := 0; i < 400; i++ {
			net.DiscoverRandom(picker.Pick(r, corpus, unit*10), true, r)
		}
		for _, id := range net.PeerIDs() {
			if _, err := (lb.MLT{}).Periodic(net, id); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("after balancing round %d: %v", unit, err)
		}
	}

	// Phase 4: churn with KC placement.
	kc := lb.KChoices{K: 4}
	for i := 0; i < 10; i++ {
		id := kc.PlaceJoin(net, r, 20)
		if err := net.JoinPeer(id, 20, r); err != nil {
			t.Fatal(err)
		}
		ids := net.PeerIDs()
		if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("after churn: %v", err)
	}

	// Phase 5: crash two peers and recover from the successor
	// replicas, running the replication tick before each failure: a
	// crash also destroys the replica set the victim held for its
	// predecessor, so single-replica tolerance is one failure per
	// replication window.
	for i := 0; i < 2; i++ {
		net.Replicate()
		ids := net.PeerIDs()
		if err := net.FailPeer(ids[r.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
		if _, lost := net.Recover(); len(lost) != 0 {
			t.Fatalf("crash %d lost replicated nodes %v", i, lost)
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}

	// Phase 6: every service still fully queryable, by all paths.
	for _, k := range corpus {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("key %q lost", k)
		}
	}
	rangeRes := net.RangeQuery("s3l_", "s3l_zzzz", r)
	if len(rangeRes.Keys) == 0 {
		t.Fatalf("S3L range empty")
	}
	for _, k := range rangeRes.Keys {
		if !keys.IsPrefix("s3l_", k) {
			t.Fatalf("stray key %q in S3L range", k)
		}
	}
}

// TestIntegrationRunMatchesShape drives every balancing strategy, and
// the hashed mapping, through the paper's per-unit loop under 5 %
// churn, validating the overlay's invariants after every unit: each
// run must satisfy requests.
func TestIntegrationRunMatchesShape(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 2
	cfg.TimeUnits = 14
	cfg.NumPeers = 24
	cfg.NumKeys = 150
	cfg.GrowUnits = 4
	cfg.JoinFraction = 0.05
	cfg.LeaveFraction = 0.05
	cfg.Validate = true
	for _, placement := range []core.Placement{core.PlacementLexicographic, core.PlacementHashed} {
		for _, strategy := range []string{"NoLB", "MLT", "KC", "EqualLoad"} {
			if placement == core.PlacementHashed && strategy != "NoLB" {
				continue
			}
			c := cfg
			c.Placement = placement
			c.Strategy = strategy
			res, err := experiments.Run(c)
			if err != nil {
				t.Fatalf("%v/%s: %v", placement, strategy, err)
			}
			if res.TotalSatisfied == 0 {
				t.Fatalf("%v/%s satisfied nothing", placement, strategy)
			}
		}
	}
}

// TestIntegrationAttrsOverChurningOverlay keeps the multi-attribute
// directory consistent while the overlay churns underneath it.
func TestIntegrationAttrsOverChurn(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(103))
	net := core.NewNetwork(keys.PrintableASCII, core.PlacementLexicographic)
	for i := 0; i < 12; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<20, r); err != nil {
			t.Fatal(err)
		}
	}
	// The directory queries through the engine facade while the test
	// churns the shared overlay directly underneath it.
	dir := attrs.NewDirectory(local.Wrap(net, 103))
	for i := 0; i < 40; i++ {
		svc := attrs.Service{
			ID: fmt.Sprintf("svc-%02d", i),
			Attributes: map[string]string{
				"cpu": []string{"x86_64", "arm64"}[i%2],
				"mem": fmt.Sprintf("%03d", 32*(1+i%8)),
			},
		}
		if err := dir.Register(ctx, svc); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<20, r); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 0 && net.NumPeers() > 4 {
			ids := net.PeerIDs()
			if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := dir.Validate(ctx); err != nil {
		t.Fatal(err)
	}
	ids, _, err := dir.Query(ctx,
		attrs.Predicate{Attr: "cpu", Exact: "x86_64"},
		attrs.Predicate{Attr: "mem", Lo: "064", Hi: "128"},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		a, _ := dir.Describe(id)
		if a["cpu"] != "x86_64" || a["mem"] < "064" || a["mem"] > "128" {
			t.Fatalf("query returned non-matching %q: %v", id, a)
		}
	}
}

// TestIntegrationComparatorsShareCorpus runs the three overlays on
// the identical key corpus and confirms all answer identically.
func TestIntegrationComparatorsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	corpus := workload.GridCorpus(120)
	absent := []keys.Key{"zz1", "zz2_routine", "aa"}

	// DLPT.
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for i := 0; i < 10; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<20, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range corpus {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	// PHT.
	ring := dht.New()
	for i := 0; i < 10; i++ {
		if _, err := ring.Join(fmt.Sprintf("n-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ph, err := pht.New(ring, 64, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range corpus {
		if err := ph.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range corpus {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("DLPT misses %q", k)
		}
		if found, _ := ph.Lookup(k); !found {
			t.Fatalf("PHT misses %q", k)
		}
	}
	for _, k := range absent {
		if res := net.DiscoverRandom(k, false, r); res.Satisfied {
			t.Fatalf("DLPT phantom %q", k)
		}
		if found, _ := ph.Lookup(k); found {
			t.Fatalf("PHT phantom %q", k)
		}
	}
}

// TestIntegrationTCPAndFigures ties the wire transport to the
// experiment harness: a TCP overlay answers the same catalogue the
// quick Figure 4 experiment simulates.
func TestIntegrationTCPRuntime(t *testing.T) {
	c, err := transport.Start(keys.LowerAlnum, []int{1 << 20, 1 << 20, 1 << 20, 1 << 20}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	spec := experiments.Figure4(true)
	corpus := workload.GridCorpus(spec.Base.NumKeys)[:60]
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range corpus[:15] {
		res, err := c.Discover(k)
		if err != nil || !res.Found {
			t.Fatalf("TCP discover %q: %v %v", k, res.Found, err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalWrapRoutesFromTheSeededEntry pins the alignment
// benchmark/layers.go's ladder relies on (harness.ladder_aligned_share
// = 1.0): a network built by the seeded call sequence the engines use,
// wrapped with local.Wrap(net, 7), enters the tree for its n-th
// discovery where rand.New(rand.NewSource(7))'s n-th RandomNodeKey draw
// says — one draw per discovery and nothing else taken from the
// engine's stream — so the registry and core.Network.DiscoverRandom on
// an identically built twin take equal logical hops op by op.
func TestLocalWrapRoutesFromTheSeededEntry(t *testing.T) {
	const overlaySeed, ladderSeed = 1, 7
	corpus := workload.GridCorpus(600)
	build := func() *core.Network {
		net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
		rng := rand.New(rand.NewSource(overlaySeed))
		for i := 0; i < 16; i++ {
			var id keys.Key
			for {
				id = keys.LowerAlnum.RandomKey(rng, 12, 12)
				if _, exists := net.Peer(id); !exists {
					break
				}
			}
			if err := net.JoinPeer(id, 1<<20, rng); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range corpus {
			if err := net.InsertData(k, "ep", rng); err != nil {
				t.Fatal(err)
			}
		}
		return net
	}
	reg := NewWithEngine(local.Wrap(build(), ladderSeed))
	twin, rng := build(), rand.New(rand.NewSource(ladderSeed))
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		k := corpus[(i*7)%len(corpus)]
		svc, ok, err := reg.Discover(ctx, string(k))
		if err != nil || !ok {
			t.Fatalf("op %d: discover %q through the engine: found %v, err %v", i, k, ok, err)
		}
		ref := twin.DiscoverRandom(k, false, rng)
		if !ref.Satisfied || svc.LogicalHops != ref.LogicalHops || svc.PhysicalHops != ref.PhysicalHops {
			t.Fatalf("op %d (%q): engine took %d/%d logical/physical hops, the core from the seeded entry %d/%d",
				i, k, svc.LogicalHops, svc.PhysicalHops, ref.LogicalHops, ref.PhysicalHops)
		}
	}
}
