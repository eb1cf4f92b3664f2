package dlpt

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper (quick scale — the full paper scale runs through
// cmd/dlptsim), plus micro-benchmarks of the primitives the protocol
// is built from. Run with:
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dlpt/engine"
	"dlpt/engine/local"
	"dlpt/internal/attrs"
	"dlpt/internal/core"
	"dlpt/internal/dht"
	"dlpt/internal/experiments"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/pgrid"
	"dlpt/internal/pht"
	"dlpt/internal/transport"
	"dlpt/internal/trie"
	"dlpt/internal/workload"
)

// --- figure/table reproductions (quick scale) -------------------------------

func benchSpec(b *testing.B, spec experiments.Spec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		spec.Base.Seed = int64(i + 1)
		if _, err := experiments.RunSpec(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (stable network, low load).
func BenchmarkFigure4(b *testing.B) { benchSpec(b, experiments.Figure4(true)) }

// BenchmarkFigure5 regenerates Figure 5 (stable network, overload).
func BenchmarkFigure5(b *testing.B) { benchSpec(b, experiments.Figure5(true)) }

// BenchmarkFigure6 regenerates Figure 6 (dynamic network, low load).
func BenchmarkFigure6(b *testing.B) { benchSpec(b, experiments.Figure6(true)) }

// BenchmarkFigure7 regenerates Figure 7 (dynamic network, overload).
func BenchmarkFigure7(b *testing.B) { benchSpec(b, experiments.Figure7(true)) }

// BenchmarkFigure8 regenerates Figure 8 (hot spots).
func BenchmarkFigure8(b *testing.B) { benchSpec(b, experiments.Figure8(true)) }

// BenchmarkFigure9 regenerates Figure 9 (communication gain of the
// lexicographic mapping).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure9(experiments.Figure9(true)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the Table 1 gain summary.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the Table 2 complexity comparison.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMaintenance regenerates the DHT-avoidance
// maintenance-cost ablation.
func BenchmarkAblationMaintenance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMaintenance(true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- protocol micro-benchmarks ----------------------------------------------

// BenchmarkGCP measures the greatest-common-prefix primitive.
func BenchmarkGCP(b *testing.B) {
	a := keys.Key("pdgesv_variant_long_key_name")
	c := keys.Key("pdgesv_variant_other_key")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = keys.GCP(a, c)
	}
}

// BenchmarkTrieInsert measures reference PGCP-tree insertion.
func BenchmarkTrieInsert(b *testing.B) {
	corpus := workload.GridCorpus(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := trie.New()
		for _, k := range corpus {
			t.InsertKey(k)
		}
	}
}

// BenchmarkTrieLookup measures reference tree lookup.
func BenchmarkTrieLookup(b *testing.B) {
	corpus := workload.GridCorpus(1000)
	t := trie.New()
	for _, k := range corpus {
		t.InsertKey(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Lookup(corpus[i%len(corpus)]); !ok {
			b.Fatal("lost key")
		}
	}
}

// buildOverlay constructs a populated DLPT overlay for benchmarks.
func buildOverlay(b *testing.B, peers, nkeys int) (*core.Network, []keys.Key, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for i := 0; i < peers; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(rng, 12, 12), 1<<30, rng); err != nil {
			b.Fatal(err)
		}
	}
	corpus := workload.GridCorpus(nkeys)
	for _, k := range corpus {
		if err := net.InsertKey(k, rng); err != nil {
			b.Fatal(err)
		}
	}
	return net, corpus, rng
}

// BenchmarkOverlayInsert measures Algorithm 3 (distributed data
// insertion) end to end.
func BenchmarkOverlayInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for i := 0; i < 100; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(rng, 12, 12), 1<<30, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys.Key(fmt.Sprintf("bench_key_%d", i))
		if err := net.InsertKey(k, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlayDiscover measures DLPT discovery routing (the O(D)
// row of Table 2).
func BenchmarkOverlayDiscover(b *testing.B) {
	net, corpus, rng := buildOverlay(b, 100, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := net.DiscoverRandom(corpus[i%len(corpus)], false, rng)
		if !res.Satisfied {
			b.Fatal("lost key")
		}
	}
}

// BenchmarkOverlayPeerJoin measures Algorithms 1-2 (tree-routed peer
// insertion).
func BenchmarkOverlayPeerJoin(b *testing.B) {
	net, _, rng := buildOverlay(b, 100, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := keys.LowerAlnum.RandomKey(rng, 14, 14)
		if err := net.JoinPeer(id, 1<<30, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLTStep measures one MLT balancing pass over a loaded pair
// (the O(|nu_S u nu_P|) scan of Section 3.3; ablation A2).
func BenchmarkMLTStep(b *testing.B) {
	net, corpus, rng := buildOverlay(b, 100, 1000)
	net.ResetUnit()
	for i := 0; i < 5000; i++ {
		net.DiscoverRandom(corpus[rng.Intn(len(corpus))], true, rng)
	}
	net.ResetUnit()
	ids := net.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (lb.MLT{}).Periodic(net, ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKChoicesPlace measures k-choices join placement (k=4).
func BenchmarkKChoicesPlace(b *testing.B) {
	net, _, rng := buildOverlay(b, 100, 1000)
	kc := lb.KChoices{K: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kc.PlaceJoin(net, rng, 25)
	}
}

// BenchmarkDHTLookup measures Chord lookup (the substrate cost PHT
// pays per trie level).
func BenchmarkDHTLookup(b *testing.B) {
	ring := dht.New()
	for i := 0; i < 128; i++ {
		if _, err := ring.Join(fmt.Sprintf("node-%04d", i)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ring.Lookup(fmt.Sprintf("key-%d", i), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPHTLookup measures a PHT lookup (linear descent).
func BenchmarkPHTLookup(b *testing.B) {
	ring := dht.New()
	for i := 0; i < 64; i++ {
		if _, err := ring.Join(fmt.Sprintf("node-%04d", i)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ph, err := pht.New(ring, 64, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	corpus := workload.GridCorpus(500)
	for _, k := range corpus {
		if err := ph.Insert(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := ph.Lookup(corpus[i%len(corpus)])
		if err != nil || !found {
			b.Fatal("lost key")
		}
	}
}

// BenchmarkPGridLookup measures a P-Grid lookup (O(log |Pi|)).
func BenchmarkPGridLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var names []string
	for i := 0; i < 128; i++ {
		names = append(names, fmt.Sprintf("peer-%04d", i))
	}
	corpus := workload.GridCorpus(1000)
	g, err := pgrid.Build(pgrid.Config{D: 64, MaxKeysPerLeaf: 16, RefsPerLevel: 2},
		names, corpus, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, _, err := g.Lookup(corpus[i%len(corpus)])
		if err != nil || !found {
			b.Fatal("lost key")
		}
	}
}

// BenchmarkRunPaperScale measures one run of the per-unit loop at
// paper scale (100 peers, 1000 keys, 50 units) with MLT enabled.
func BenchmarkRunPaperScale(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Strategy = "MLT"
	cfg.LoadFraction = 0.4
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZipf regenerates the Zipf-popularity extension experiment.
func BenchmarkZipf(b *testing.B) { benchSpec(b, experiments.Zipf(true)) }

// BenchmarkAblationObjective regenerates the MLT-objective ablation.
func BenchmarkAblationObjective(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationObjective(true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQuery measures a routed range query over the overlay.
func BenchmarkRangeQuery(b *testing.B) {
	net, _, rng := buildOverlay(b, 100, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := net.RangeQuery("pd", "pz", rng)
		if len(res.Keys) == 0 {
			b.Fatal("empty range")
		}
	}
}

// BenchmarkComplete measures routed prefix completion.
func BenchmarkComplete(b *testing.B) {
	net, _, rng := buildOverlay(b, 100, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := net.Complete("s3l_", rng)
		if len(res.Keys) == 0 {
			b.Fatal("empty completion")
		}
	}
}

// BenchmarkReplicateRecover measures a full snapshot round plus crash
// recovery of one peer.
func BenchmarkReplicateRecover(b *testing.B) {
	net, _, rng := buildOverlay(b, 50, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Replicate()
		ids := net.PeerIDs()
		if err := net.FailPeer(ids[rng.Intn(len(ids))]); err != nil {
			b.Fatal(err)
		}
		if _, lost := net.Recover(); len(lost) != 0 {
			b.Fatal("lost nodes")
		}
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(rng, 12, 12), 1<<30, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttrsQuery measures a conjunctive multi-attribute query
// through the engine facade.
func BenchmarkAttrsQuery(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	net := core.NewNetwork(keys.PrintableASCII, core.PlacementLexicographic)
	for i := 0; i < 32; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(rng, 12, 12), 1<<30, rng); err != nil {
			b.Fatal(err)
		}
	}
	dir := attrs.NewDirectory(local.Wrap(net, 1))
	for i := 0; i < 200; i++ {
		svc := attrs.Service{
			ID: fmt.Sprintf("svc-%03d", i),
			Attributes: map[string]string{
				"cpu": []string{"x86_64", "arm64", "sparc"}[i%3],
				"mem": fmt.Sprintf("%03d", 32*(1+i%8)),
			},
		}
		if err := dir.Register(ctx, svc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, _, err := dir.Query(ctx,
			attrs.Predicate{Attr: "cpu", Exact: "x86_64"},
			attrs.Predicate{Attr: "mem", Lo: "064", Hi: "192"},
		)
		if err != nil || len(ids) == 0 {
			b.Fatal("query failed")
		}
	}
}

// BenchmarkTransportDiscover measures discovery over real TCP
// loopback connections.
func BenchmarkTransportDiscover(b *testing.B) {
	caps := make([]int, 8)
	for i := range caps {
		caps[i] = 1 << 20
	}
	c, err := transport.Start(keys.LowerAlnum, caps, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	corpus := workload.GridCorpus(200)
	for _, k := range corpus {
		if err := c.Register(k, "ep"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Discover(corpus[i%len(corpus)])
		if err != nil || !res.Found {
			b.Fatal("lost key over TCP")
		}
	}
}

// BenchmarkRegistryDiscover measures the public API end to end over
// the default concurrent runtime.
func BenchmarkRegistryDiscover(b *testing.B) {
	ctx := context.Background()
	reg, err := New(16, WithSeed(1), WithAlphabet(keys.LowerAlnum))
	if err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	corpus := workload.GridCorpus(300)
	for _, k := range corpus {
		if err := reg.Register(ctx, string(k), "ep"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := reg.Discover(ctx, string(corpus[i%len(corpus)])); err != nil || !ok {
			b.Fatal("lost service")
		}
	}
}

// --- engine comparison benchmarks -------------------------------------------
//
// The same workload through every execution engine: the perf
// trajectory baseline for the deployment shapes (sequential core,
// goroutine runtime, TCP sockets).

// benchEngineRegistry builds a populated Registry on one engine.
func benchEngineRegistry(b *testing.B, kind EngineKind, peers, nkeys int) (*Registry, []keys.Key) {
	b.Helper()
	ctx := context.Background()
	reg, err := New(peers, WithSeed(1), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { reg.Close() })
	corpus := workload.GridCorpus(nkeys)
	batch := make([]Registration, len(corpus))
	for i, k := range corpus {
		batch[i] = Registration{Name: string(k), Endpoint: "ep"}
	}
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		b.Fatal(err)
	}
	return reg, corpus
}

// BenchmarkEngineDiscover measures exact discovery latency on every
// engine.
func BenchmarkEngineDiscover(b *testing.B) {
	ctx := context.Background()
	for _, kind := range []EngineKind{EngineLocal, EngineLive, EngineTCP} {
		b.Run(string(kind), func(b *testing.B) {
			reg, corpus := benchEngineRegistry(b, kind, 16, 300)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := reg.Discover(ctx, string(corpus[i%len(corpus)])); err != nil || !ok {
					b.Fatalf("lost service on %s", kind)
				}
			}
		})
	}
}

// BenchmarkEngineRange measures routed range-query latency on every
// engine.
func BenchmarkEngineRange(b *testing.B) {
	ctx := context.Background()
	for _, kind := range []EngineKind{EngineLocal, EngineLive, EngineTCP} {
		b.Run(string(kind), func(b *testing.B) {
			reg, _ := benchEngineRegistry(b, kind, 16, 300)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ks, err := reg.Range(ctx, "pd", "pz", 0)
				if err != nil || len(ks) == 0 {
					b.Fatalf("empty range on %s", kind)
				}
			}
		})
	}
}

// BenchmarkEngineFirstResult measures time-to-first-key of an
// unlimited streaming completion on every engine: the stream is
// closed after one result, cancelling the traversal behind it.
func BenchmarkEngineFirstResult(b *testing.B) {
	ctx := context.Background()
	for _, kind := range []EngineKind{EngineLocal, EngineLive, EngineTCP} {
		b.Run(string(kind), func(b *testing.B) {
			reg, _ := benchEngineRegistry(b, kind, 16, 2000)
			eng := reg.Engine()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := eng.Query(ctx, engine.Query{Kind: engine.QueryComplete})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := s.Next(); !ok {
					b.Fatalf("no first result on %s", kind)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkEngineCompleteLimit10 measures a limit-10 streaming
// completion over a large keyspace on every engine — the pushdown
// path that stops the traversal after ten matches instead of
// materializing thousands.
func BenchmarkEngineCompleteLimit10(b *testing.B) {
	ctx := context.Background()
	for _, kind := range []EngineKind{EngineLocal, EngineLive, EngineTCP} {
		b.Run(string(kind), func(b *testing.B) {
			reg, _ := benchEngineRegistry(b, kind, 16, 5000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, err := range reg.CompleteSeq(ctx, "", 10) {
					if err != nil {
						b.Fatal(err)
					}
					n++
				}
				if n != 10 {
					b.Fatalf("limit-10 completion yielded %d keys on %s", n, kind)
				}
			}
		})
	}
}

// BenchmarkEngineRegisterBatch measures bulk catalogue publication on
// every engine.
func BenchmarkEngineRegisterBatch(b *testing.B) {
	ctx := context.Background()
	corpus := workload.GridCorpus(200)
	batch := make([]Registration, len(corpus))
	for i, k := range corpus {
		batch[i] = Registration{Name: string(k), Endpoint: "ep"}
	}
	for _, kind := range []EngineKind{EngineLocal, EngineLive, EngineTCP} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reg, err := New(8, WithSeed(int64(i+1)), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := reg.RegisterBatch(ctx, batch); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				reg.Close()
				b.StartTimer()
			}
		})
	}
}
