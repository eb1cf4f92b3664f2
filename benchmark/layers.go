package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dlpt"
	enginelive "dlpt/engine/live"
	enginelocal "dlpt/engine/local"
	enginetcp "dlpt/engine/tcp"
	"dlpt/internal/catalog"
	"dlpt/internal/core"
	"dlpt/internal/daemon"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/persist"
	"dlpt/internal/stats"
	"dlpt/internal/transport"
	"dlpt/internal/trie"
	"dlpt/internal/workload"
)

// perLayer lists the metrics every traced pass reports. Each layer is
// one of the repository's packages, timed from outside through its
// exported functions; README.md says which end-to-end metric each is
// expected to move, and on which workload.
var perLayer = []metricDef{
	{name: "trie.lookup_ns", unit: "ns", better: "lower"},
	{name: "trie.insert_ns", unit: "ns", better: "lower"},
	{name: "trie.complete_ns_per_key", unit: "ns", better: "lower"},
	{name: "core.discover_ns", unit: "ns", better: "lower"},
	{name: "core.logical_hops_per_op", unit: "count", better: "lower"},
	{name: "core.physical_hops_per_op", unit: "count", better: "lower"},
	{name: "core.walker_ns_per_key", unit: "ns", better: "lower"},
	{name: "core.walker_visits_per_key", unit: "count", better: "lower"},
	{name: "core.insert_ns", unit: "ns", better: "lower"},
	{name: "engine.local_adapter_ns", unit: "ns", better: "lower"},
	{name: "engine.tcp_adapter_ns", unit: "ns", better: "lower"},
	{name: "engine.local_residual_share", unit: "ratio", better: "lower"},
	{name: "engine.tcp_residual_share", unit: "ratio", better: "lower"},
	{name: "live.discover_ns", unit: "ns", better: "lower"},
	{name: "live.dispatch_ns_per_hop", unit: "ns", better: "lower"},
	{name: "live.register_ns", unit: "ns", better: "lower"},
	{name: "live.replicate_ms", unit: "ms", better: "lower"},
	{name: "live.addpeer_ms", unit: "ms", better: "lower"},
	{name: "transport.discover_ns", unit: "ns", better: "lower"},
	{name: "transport.wire_ns_per_hop", unit: "ns", better: "lower"},
	{name: "transport.control_rtt_ns", unit: "ns", better: "lower"},
	{name: "transport.rawcall_ns", unit: "ns", better: "lower"},
	{name: "transport.wire_unexplained_share", unit: "ratio", better: "lower"},
	{name: "transport.stream_first_ns", unit: "ns", better: "lower"},
	{name: "transport.stream_ns_per_key", unit: "ns", better: "lower"},
	{name: "transport.wire_bytes_per_op", unit: "B", better: "lower"},
	{name: "transport.wire_bytes_per_key", unit: "B", better: "lower"},
	{name: "transport.pool_dials", unit: "count", better: "lower"},
	{name: "transport.pool_conns", unit: "count", better: "lower"},
	{name: "transport.allocs_per_discover", unit: "count", better: "lower"},
	{name: "transport.allocs_per_scan_key", unit: "count", better: "lower"},
	{name: "catalog.encode_ns_per_key", unit: "ns", better: "lower"},
	{name: "catalog.decode_ns_per_key", unit: "ns", better: "lower"},
	{name: "catalog.view_ascend_ns_per_key", unit: "ns", better: "lower"},
	{name: "catalog.bytes_per_key", unit: "B", better: "lower"},
	{name: "persist.append_ns", unit: "ns", better: "lower"},
	{name: "persist.snapshot_begin_us", unit: "us", better: "lower"},
	{name: "persist.snapshot_commit_ms", unit: "ms", better: "lower"},
	{name: "persist.load_ms", unit: "ms", better: "lower"},
	{name: "lb.balance_ms", unit: "ms", better: "lower"},
	{name: "lb.moves_per_balance", unit: "count", better: "lower"},
	{name: "lb.load_gini", unit: "ratio", better: "lower"},
	{name: "daemon.register_steward_us", unit: "us", better: "lower"},
	{name: "daemon.register_member_us", unit: "us", better: "lower"},
	{name: "daemon.discover_us", unit: "us", better: "lower"},
	{name: "daemon.apply_lag_us", unit: "us", better: "lower"},
	{name: "daemon.join_ms", unit: "ms", better: "lower"},
	{name: "daemon.admin_codec_ns", unit: "ns", better: "lower"},
	{name: "replay.p50_us", unit: "us", better: "lower"},
	{name: "replay.p99_us", unit: "us", better: "lower"},
	{name: "trace.overhead_us", unit: "us", better: "lower"},
	{name: "trace.spans_per_op", unit: "count", better: "lower"},
	{name: "obs.snapshot_us", unit: "us", better: "lower"},
	{name: "harness.clock_ns", unit: "ns", better: "lower"},
	{name: "harness.span_ns", unit: "ns", better: "lower"},
	{name: "harness.ladder_aligned_share", unit: "ratio", better: "higher"},
}

// microBatch is how many calls one span covers where a single call is
// too short to time against the clock.
const microBatch = 64

// suite runs the per-layer probes of one traced pass. It owns nothing
// of the workload's overlay: every probe builds what it needs from the
// same corpus and overlay seed, so the per-layer numbers mean the
// same thing whichever workload's traced pass reports them.
type suite struct {
	ctx   context.Context
	e     *env
	g     *generator // generator over the engine-size corpus
	tr    *tracer
	out   metrics
	alpha *keys.Alphabet
	kvs   []core.KV
	// lookups is the ladder's op stream; scans the 2,000-key-class
	// scan stream the walker and stream probes share.
	lookups []op
	scans   []op
}

func newSuite(ctx context.Context, e *env, tr *tracer, out metrics) *suite {
	g := e.gen
	if len(g.corpus) != e.sz.keys {
		g = newGenerator(e.seed, e.sz.keys)
	}
	s := &suite{ctx: ctx, e: e, g: g, tr: tr, out: out, alpha: keys.LowerAlnum}
	s.kvs = make([]core.KV, len(g.corpus))
	for i, k := range g.corpus {
		s.kvs[i] = core.KV{Key: k, Value: endpoint}
	}
	s.lookups = g.lookupStream(0, e.sz.ladderOps)
	s.scans = g.probeStream(opScan, 0, e.sz.layerScans)
	return s
}

func (s *suite) setMed(metric, unit, spanName string, scale float64) {
	xs := s.tr.perCall(spanName)
	s.out.set(metric, unit, median(xs)/scale, len(xs))
}

// run executes every probe. The order matters in one place: the core
// replays and the clusters must consume their seeded entry draws in
// the same order for the ladder's op-by-op pairing to hold.
func (s *suite) run() error {
	s.harness()
	s.trie()
	net, rng, err := s.mirrorNetwork()
	if err != nil {
		return err
	}
	steps := []func(*core.Network, *rand.Rand) error{s.local, s.live, s.tcp, s.walker}
	for _, step := range steps {
		if err := step(net, rng); err != nil {
			return err
		}
	}
	if err := s.balance(); err != nil {
		return err
	}
	if err := s.catalogAndPersist(); err != nil {
		return err
	}
	return s.daemons()
}

func (s *suite) harness() {
	scratch := newTracer(2 * microBatch)
	for i := 0; i < 32; i++ {
		s.tr.batch(i, "harness.clock", microBatch, func() {
			for j := 0; j < microBatch; j++ {
				_ = time.Now()
			}
		})
		scratch.spans = scratch.spans[:0]
		s.tr.batch(i, "harness.span", microBatch, func() {
			for j := 0; j < microBatch; j++ {
				scratch.end(scratch.begin(j, 0, "x"))
			}
		})
	}
	s.setMed("harness.clock_ns", "ns", "harness.clock", 1)
	s.setMed("harness.span_ns", "ns", "harness.span", 1)
}

func (s *suite) trie() {
	t := trie.New()
	corpus := s.g.corpus
	for i := 0; i < len(corpus); i += microBatch {
		chunk := corpus[i:min(i+microBatch, len(corpus))]
		s.tr.batch(i, "trie.Insert", len(chunk), func() {
			for _, k := range chunk {
				t.Insert(k, endpoint)
			}
		})
	}
	for i := 0; i+microBatch <= len(s.lookups); i += microBatch {
		chunk := s.lookups[i : i+microBatch]
		s.tr.batch(i, "trie.Lookup", microBatch, func() {
			for j := range chunk {
				t.Lookup(keys.Key(chunk[j].key))
			}
		})
	}
	var nkeys int
	for i := range s.scans {
		o := &s.scans[i]
		if o.hi != "" {
			continue
		}
		s.tr.batch(i, "trie.Complete", o.count, func() { nkeys += len(t.Complete(keys.Key(o.key), 0)) })
	}
	s.setMed("trie.insert_ns", "ns", "trie.Insert", 1)
	s.setMed("trie.lookup_ns", "ns", "trie.Lookup", 1)
	s.out.set("trie.complete_ns_per_key", "ns", s.tr.total("trie.Complete")/float64(max(nkeys, 1)), nkeys)
}

// mirrorNetwork builds a core.Network by the same seeded call
// sequence the engines use to construct theirs (ring identifiers,
// joins, inserts), timing every InsertData. The returned rng is then
// in the state a tcp cluster's rng has after the same set-up, so its
// further draws predict that cluster's discovery entry points.
func (s *suite) mirrorNetwork() (*core.Network, *rand.Rand, error) {
	net := core.NewNetwork(s.alpha, core.PlacementLexicographic)
	rng := rand.New(rand.NewSource(overlaySeed))
	for i := 0; i < s.e.sz.peers; i++ {
		var id keys.Key
		for {
			id = s.alpha.RandomKey(rng, 12, 12)
			if _, exists := net.Peer(id); !exists {
				break
			}
		}
		if err := net.JoinPeer(id, 1<<20, rng); err != nil {
			return nil, nil, err
		}
	}
	for i, kv := range s.kvs {
		id := s.tr.begin(i, 0, "core.InsertData")
		err := net.InsertData(kv.Key, kv.Value, rng)
		s.tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	s.setMed("core.insert_ns", "ns", "core.InsertData", 1)
	return net, rng, nil
}

// rung is one depth of the ladder: a name for its spans and the call
// that routes one lookup at that depth.
type rung struct {
	name string
	call func(o *op) (logical, physical int, found bool, err error)
}

// replay is what one rung recorded over the lookup stream.
type replay struct {
	ns      []float64
	logical []int
	phys    int
}

// ladderBlock is how many ops one rung replays before the next rung
// takes its turn. Interleaving the rungs in blocks spreads heap
// growth, collections and scheduler drift evenly over them, so the
// difference between two rungs is the layer and not the minute in
// which each happened to run.
const ladderBlock = 256

// climb replays the lookup stream single-client at every rung, lowest
// first, one span per op and rung; the span of the rung above becomes
// the op's parent span. Each rung draws its entry points from its own
// seeded stream, so op i enters the tree at the same node on every
// rung whatever the interleaving.
func (s *suite) climb(rungs ...rung) ([]*replay, error) {
	n := len(s.lookups)
	out := make([]*replay, len(rungs))
	for d := range out {
		out[d] = &replay{ns: make([]float64, n), logical: make([]int, n)}
	}
	ids := make([]int, ladderBlock)
	for lo := 0; lo < n; lo += ladderBlock {
		hi := min(lo+ladderBlock, n)
		for d, rg := range rungs {
			for i := lo; i < hi; i++ {
				o := &s.lookups[i]
				id := s.tr.begin(i, 0, rg.name)
				logical, physical, found, err := rg.call(o)
				s.tr.end(id)
				if err != nil {
					return nil, fmt.Errorf("%s %q: %w", rg.name, o.key, err)
				}
				if found != o.found {
					return nil, wrongf("%s %q: found=%t, model says %t", rg.name, o.key, found, o.found)
				}
				if d > 0 {
					s.tr.spans[ids[i-lo]-1].Parent = id
				}
				ids[i-lo] = id
				sp := &s.tr.spans[id-1]
				out[d].ns[i] = float64(sp.End - sp.Start)
				out[d].logical[i] = logical
				out[d].phys += physical
			}
		}
	}
	return out, nil
}

// coreRung routes on the mirror network with entry points drawn from
// rng.
func coreRung(name string, net *core.Network, rng *rand.Rand) rung {
	return rung{name, func(o *op) (int, int, bool, error) {
		res := net.DiscoverRandom(keys.Key(o.key), false, rng)
		return res.LogicalHops, res.PhysicalHops, res.Satisfied, nil
	}}
}

// above returns the median, op by op, of upper minus lower, and records
// how many found lookups took the same number of logical hops on both
// rungs — the check that the two routed each op from the same entry
// point. (Misses are left out: the engines count the last, failing
// step of a miss differently.)
func (s *suite) above(upper, lower *replay) float64 {
	d := make([]float64, len(upper.ns))
	aligned, found := 0, 0
	for i := range d {
		d[i] = upper.ns[i] - lower.ns[i]
		if s.lookups[i].found {
			found++
			if upper.logical[i] == lower.logical[i] {
				aligned++
			}
		}
	}
	prev := s.out["harness.ladder_aligned_share"]
	total := prev.N + found
	s.out.set("harness.ladder_aligned_share", "ratio",
		(prev.Value*float64(prev.N)+float64(aligned))/float64(max(total, 1)), total)
	return median(d)
}

func meanPhys(r *replay) float64 { return float64(r.phys) / float64(len(r.ns)) }

// local is the first two rungs: Network.DiscoverRandom, then the same
// network behind the local engine and the public Registry.
func (s *suite) local(net *core.Network, _ *rand.Rand) error {
	const ladderSeed = 7
	reg := dlpt.NewWithEngine(enginelocal.Wrap(net, ladderSeed))
	rs, err := s.climb(
		coreRung("core.Discover", net, rand.New(rand.NewSource(ladderSeed))),
		rung{"engine.local.Discover", func(o *op) (int, int, bool, error) {
			svc, ok, err := reg.Discover(s.ctx, o.key)
			return svc.LogicalHops, svc.PhysicalHops, ok, err
		}})
	if err != nil {
		return err
	}
	base, up := rs[0], rs[1]
	n := len(base.ns)
	var logical int
	for _, l := range base.logical {
		logical += l
	}
	s.out.set("core.discover_ns", "ns", median(base.ns), n)
	s.out.set("core.logical_hops_per_op", "count", float64(logical)/float64(n), n)
	s.out.set("core.physical_hops_per_op", "count", meanPhys(base), n)
	adapter := s.above(up, base)
	s.out.set("engine.local_adapter_ns", "ns", adapter, n)
	s.out.set("engine.local_residual_share", "ratio", 1-(median(base.ns)+adapter)/median(up.ns), n)
	return nil
}

// overlayRegistry builds a registry of the given engine over the
// suite's corpus, exactly as the workloads' set-up does.
func (s *suite) overlayRegistry(kind dlpt.EngineKind, observed bool) (*dlpt.Registry, error) {
	e := *s.e
	e.gen = s.g
	ov, err := engineBuilder(kind, false)(s.ctx, &e, observed)
	if err != nil {
		return nil, err
	}
	return ov.(*engineOverlay).reg, nil
}

// live times the live cluster: the ladder rung, then writes,
// replication, membership and MLT balancing through the cluster's own
// methods.
func (s *suite) live(net *core.Network, _ *rand.Rand) error {
	reg, err := s.overlayRegistry(dlpt.EngineLive, false)
	if err != nil {
		return err
	}
	defer reg.Close()
	lc := reg.Engine().(*enginelive.Engine).Cluster()

	// The live cluster draws its entry points from a second stream
	// seeded seed+1.
	rs, err := s.climb(
		coreRung("core.Discover/live-entries", net, rand.New(rand.NewSource(overlaySeed+1))),
		rung{"live.DiscoverContext", func(o *op) (int, int, bool, error) {
			res, err := lc.DiscoverContext(s.ctx, keys.Key(o.key))
			return res.LogicalHops, res.PhysicalHops, res.Found, err
		}})
	if err != nil {
		return err
	}
	up := rs[1]
	n := len(up.ns)
	s.out.set("live.discover_ns", "ns", median(up.ns), n)
	s.out.set("live.dispatch_ns_per_hop", "ns", s.above(up, rs[0])/max(meanPhys(up), 1), n)

	for i := 0; i < s.e.sz.layerCalls; i++ {
		k := keys.Key(fmt.Sprintf("zzlayer_%d", i))
		id := s.tr.begin(i, 0, "live.Register")
		err := lc.Register(k, endpoint)
		s.tr.end(id)
		if err != nil {
			return err
		}
	}
	s.setMed("live.register_ns", "ns", "live.Register", 1)
	for i := 0; i < 5; i++ {
		id := s.tr.begin(i, 0, "live.Replicate")
		_, err := lc.Replicate()
		s.tr.end(id)
		if err != nil {
			return err
		}
		id = s.tr.begin(i, 0, "live.AddPeer")
		peer, err := lc.AddPeer(1 << 20)
		s.tr.end(id)
		if err != nil {
			return err
		}
		if err := lc.RemovePeer(peer); err != nil {
			return err
		}
	}
	s.setMed("live.replicate_ms", "ms", "live.Replicate", 1e6)
	s.setMed("live.addpeer_ms", "ms", "live.AddPeer", 1e6)

	if err := lc.Validate(); err != nil {
		return wrongf("live cluster after the layer probes: %v", err)
	}
	return nil
}

// tcp times the socket transport: the cluster rung and the Registry
// rung on two identically built overlays (each consumes its own copy
// of the same entry-point stream), then result streams, the pool, and
// the wire-byte counters of a third, observed overlay.
func (s *suite) tcp(net *core.Network, rng *rand.Rand) error {
	regA, err := s.overlayRegistry(dlpt.EngineTCP, false)
	if err != nil {
		return err
	}
	defer regA.Close()
	regB, err := s.overlayRegistry(dlpt.EngineTCP, false)
	if err != nil {
		return err
	}
	defer regB.Close()
	tc := regA.Engine().(*enginetcp.Engine).Cluster()
	n := len(s.lookups)
	rs, err := s.climb(
		coreRung("core.Discover/tcp-entries", net, rng),
		rung{"transport.DiscoverContext", func(o *op) (int, int, bool, error) {
			res, err := tc.DiscoverContext(s.ctx, keys.Key(o.key))
			return res.LogicalHops, res.PhysicalHops, res.Found, err
		}},
		rung{"engine.tcp.Discover", func(o *op) (int, int, bool, error) {
			svc, ok, err := regB.Discover(s.ctx, o.key)
			return svc.LogicalHops, svc.PhysicalHops, ok, err
		}})
	if err != nil {
		return err
	}
	base, cluster, registry := rs[0], rs[1], rs[2]
	wire := s.above(cluster, base)
	adapter := s.above(registry, cluster)
	s.out.set("transport.discover_ns", "ns", median(cluster.ns), n)
	s.out.set("transport.wire_ns_per_hop", "ns", wire/max(meanPhys(cluster), 1), n)
	s.out.set("engine.tcp_adapter_ns", "ns", adapter, n)
	s.out.set("engine.tcp_residual_share", "ratio", 1-(median(base.ns)+wire+adapter)/median(registry.ns), n)

	// Steady state, after the ladder has warmed the pool: allocations
	// per discovery, and dials, which must be zero.
	_, dials0 := tc.PoolStats()
	m0 := mallocs()
	steady := s.lookups[:n/4]
	for i := range steady {
		if _, err := tc.DiscoverContext(s.ctx, keys.Key(steady[i].key)); err != nil {
			return err
		}
	}
	s.out.set("transport.allocs_per_discover", "count", float64(mallocs()-m0)/float64(len(steady)), len(steady))
	conns, dials := tc.PoolStats()
	s.out.set("transport.pool_dials", "count", float64(dials-dials0), len(steady))
	s.out.set("transport.pool_conns", "count", float64(conns), 1)

	// Result streams through Cluster.StreamQuery.
	var nkeys int
	m0 = mallocs()
	for i := range s.scans {
		o := &s.scans[i]
		whole := s.tr.begin(i, 0, "transport.StreamQuery")
		first := s.tr.begin(i, whole, "transport.StreamQuery/first")
		st, err := tc.StreamQuery(s.ctx, scanSpec(o))
		if err != nil {
			return err
		}
		got := 0
		for _, ok := st.Next(); ok; _, ok = st.Next() {
			if got == 0 {
				s.tr.end(first)
			}
			got++
		}
		err = errors.Join(st.Err(), st.Close())
		s.tr.end(whole)
		if err != nil {
			return err
		}
		if got != o.count {
			return wrongf("transport.StreamQuery %q..%q: %d keys, model says %d", o.key, o.hi, got, o.count)
		}
		nkeys += got
	}
	s.out.set("transport.allocs_per_scan_key", "count", float64(mallocs()-m0)/float64(nkeys), nkeys)
	s.setMed("transport.stream_first_ns", "ns", "transport.StreamQuery/first", 1)
	s.out.set("transport.stream_ns_per_key", "ns", s.tr.total("transport.StreamQuery")/float64(nkeys), nkeys)
	if err := tc.Validate(); err != nil {
		return wrongf("tcp cluster after the layer probes: %v", err)
	}

	// Wire bytes are counted by the program's own metrics, so they
	// need an observed overlay.
	regC, err := s.overlayRegistry(dlpt.EngineTCP, true)
	if err != nil {
		return err
	}
	defer regC.Close()
	wireOut := func() float64 { return regC.ObsSnapshot().Get(obs.SeriesWireBytesOut) }
	probeOps := s.lookups[:len(s.lookups)/4]
	b0 := wireOut()
	for i := range probeOps {
		if _, _, err := regC.Discover(s.ctx, probeOps[i].key); err != nil {
			return err
		}
	}
	b1 := wireOut()
	s.out.set("transport.wire_bytes_per_op", "B", (b1-b0)/float64(len(probeOps)), len(probeOps))
	nkeys = 0
	scans := s.scans[:max(len(s.scans)/4, 1)]
	for i := range scans {
		res, err := registryTarget{regC}.list(s.ctx, &scans[i])
		if err != nil {
			return err
		}
		nkeys += res.count
	}
	s.out.set("transport.wire_bytes_per_key", "B", (wireOut()-b1)/float64(nkeys), nkeys)
	for i := 0; i < 20; i++ {
		id := s.tr.begin(i, 0, "obs.Snapshot")
		regC.ObsSnapshot()
		s.tr.end(id)
	}
	s.setMed("obs.snapshot_us", "us", "obs.Snapshot", 1e3)
	return nil
}

// balance times Balance("MLT") on a live overlay whose capacities
// bind (the paper's heterogeneity model: capacities spread over a
// ratio of 4), since MLT moves nothing while every peer has capacity
// to spare. Each round routes hot-spot traffic, closes the load unit
// and balances.
func (s *suite) balance() error {
	caps := workload.Capacities(rand.New(rand.NewSource(overlaySeed)), s.e.sz.peers, 500, 4)
	reg, err := dlpt.New(0, dlpt.WithSeed(overlaySeed), dlpt.WithAlphabet(s.alpha),
		dlpt.WithEngine(dlpt.EngineLive), dlpt.WithCapacities(caps))
	if err != nil {
		return err
	}
	defer reg.Close()
	batch := make([]dlpt.Registration, len(s.kvs))
	for i, kv := range s.kvs {
		batch[i] = dlpt.Registration{Name: string(kv.Key), Endpoint: kv.Value}
	}
	if err := reg.RegisterBatch(s.ctx, batch); err != nil {
		return err
	}
	hot := s.g.readerStream("layer/hotspot", s.e.sz.ladderOps/4, 0, true)
	var moves int
	var gini float64
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for j := range hot {
			if _, _, err := reg.Discover(s.ctx, hot[j].key); err != nil {
				return err
			}
		}
		if err := reg.Tick(s.ctx); err != nil {
			return err
		}
		peers, err := reg.Peers(s.ctx)
		if err != nil {
			return err
		}
		loads := make([]float64, len(peers))
		for k, p := range peers {
			loads[k] = float64(p.Load)
		}
		gini = stats.Gini(loads)
		id := s.tr.begin(i, 0, "lb.Balance")
		m, err := reg.Balance(s.ctx, "MLT")
		s.tr.end(id)
		if err != nil {
			return err
		}
		moves += m
	}
	s.setMed("lb.balance_ms", "ms", "lb.Balance", 1e6)
	s.out.set("lb.moves_per_balance", "count", float64(moves)/rounds, rounds)
	s.out.set("lb.load_gini", "ratio", gini, len(caps))
	if err := reg.Validate(s.ctx); err != nil {
		return wrongf("live overlay after balancing: %v", err)
	}
	return nil
}

func scanSpec(o *op) core.QuerySpec {
	if o.hi != "" {
		return core.QuerySpec{Range: true, Lo: keys.Key(o.key), Hi: keys.Key(o.hi)}
	}
	return core.QuerySpec{Prefix: keys.Key(o.key)}
}

// walker drains core.QueryWalker over the scan stream on the mirror
// network.
func (s *suite) walker(net *core.Network, rng *rand.Rand) error {
	var nkeys, visits int
	buf := make([]keys.Key, 0, 256)
	for i := range s.scans {
		o := &s.scans[i]
		got := 0
		var w *core.QueryWalker
		s.tr.batch(i, "core.QueryWalker", o.count, func() {
			w = core.NewQueryWalker(net, scanSpec(o))
			entry, _ := net.RandomNodeKey(rng)
			w.Start(entry)
			for more := true; more; {
				buf, more = w.StepN(buf[:0], 0, 256)
				got += len(buf)
			}
		})
		if got != o.count {
			return wrongf("core.QueryWalker %q..%q: %d keys, model says %d", o.key, o.hi, got, o.count)
		}
		nkeys += got
		visits += w.Stats().NodesVisited
	}
	s.out.set("core.walker_ns_per_key", "ns", s.tr.total("core.QueryWalker")/float64(nkeys), nkeys)
	s.out.set("core.walker_visits_per_key", "count", float64(visits)/float64(nkeys), nkeys)
	return nil
}

// entrySource adapts a sorted entry slice to persist.EntrySource.
type entrySource []catalog.Entry

func (es entrySource) Len() int { return len(es) }
func (es entrySource) Ascend(yield func(catalog.Entry) bool) {
	for _, e := range es {
		if !yield(e) {
			return
		}
	}
}

// catalogAndPersist times the snapshot codec on the corpus and the
// store's journal and snapshot calls in a scratch directory.
func (s *suite) catalogAndPersist() error {
	entries := make([]catalog.Entry, len(s.g.m.sorted))
	for i, k := range s.g.m.sorted {
		entries[i] = catalog.Entry{Key: k, Values: []string{endpoint}}
	}
	n := len(entries)
	var buf []byte
	const reps = 5
	for i := 0; i < reps; i++ {
		s.tr.batch(i, "catalog.Append", n, func() { buf = catalog.Append(buf[:0], catalog.Default, entries, catalog.SecValues) })
		var derr error
		s.tr.batch(i, "catalog.Decode", n, func() { _, _, derr = catalog.Decode(buf) })
		if derr != nil {
			return derr
		}
		seen := 0
		s.tr.batch(i, "catalog.View.Ascend", n, func() {
			var v *catalog.View
			if v, derr = catalog.NewView(buf); derr == nil {
				derr = v.Ascend(func(catalog.Entry) bool { seen++; return true })
			}
		})
		if derr != nil {
			return derr
		}
		if seen != n {
			return wrongf("catalog view ascended %d of %d entries", seen, n)
		}
	}
	s.setMed("catalog.encode_ns_per_key", "ns", "catalog.Append", 1)
	s.setMed("catalog.decode_ns_per_key", "ns", "catalog.Decode", 1)
	s.setMed("catalog.view_ascend_ns_per_key", "ns", "catalog.View.Ascend", 1)
	s.out.set("catalog.bytes_per_key", "B", float64(len(buf))/float64(n), n)

	dir, err := os.MkdirTemp(s.e.outDir, "layer-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := persist.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	peers := []persist.PeerState{{ID: "peer", Capacity: 1 << 20}}
	for i := 0; i < reps; i++ {
		for j := 0; j < s.e.sz.layerCalls; j++ {
			id := s.tr.begin(j, 0, "persist.Append")
			err := store.Append(false, entries[j%n].Key, endpoint)
			s.tr.end(id)
			if err != nil {
				return err
			}
		}
		id := s.tr.begin(i, 0, "persist.BeginSnapshot")
		pending, err := store.BeginSnapshot()
		s.tr.end(id)
		if err != nil {
			return err
		}
		id = s.tr.begin(i, 0, "persist.Commit")
		_, err = pending.Commit(peers, entrySource(entries))
		s.tr.end(id)
		if err != nil {
			return err
		}
		id = s.tr.begin(i, 0, "persist.Load")
		loaded, err := store.Load()
		s.tr.end(id)
		if err != nil {
			return err
		}
		loaded.Release()
	}
	s.setMed("persist.append_ns", "ns", "persist.Append", 1)
	s.setMed("persist.snapshot_begin_us", "us", "persist.BeginSnapshot", 1e3)
	s.setMed("persist.snapshot_commit_ms", "ms", "persist.Commit", 1e6)
	s.setMed("persist.load_ms", "ms", "persist.Load", 1e6)
	return nil
}

// daemons times the deployment layer on a steward and two members.
func (s *suite) daemons() error {
	id := s.tr.begin(0, 0, "daemon.Start/trio")
	ov, err := startTrio()
	s.tr.end(id)
	if err != nil {
		return err
	}
	defer ov.close()
	admin := func(name, addr string, i int, req *daemon.AdminRequest) (*daemon.AdminResponse, error) {
		id := s.tr.begin(i, 0, name)
		resp, err := daemon.Admin(s.ctx, addr, req)
		s.tr.end(id)
		return resp, err
	}
	calls := s.e.sz.layerCalls
	caughtUp := func() bool {
		want := ov.steward.Seq()
		return ov.m1.Seq() >= want && ov.m2.Seq() >= want
	}
	for i := 0; i < calls; i++ {
		k := string(s.g.corpus[i])
		if _, err := admin("daemon.Admin/register-steward", ov.steward.Addr(), i,
			&daemon.AdminRequest{Op: "register", Key: k, Value: endpoint}); err != nil {
			return err
		}
		// Acknowledged: how long until both mirrors have applied it.
		id := s.tr.begin(i, 0, "daemon.apply-lag")
		for !caughtUp() {
			if err := s.ctx.Err(); err != nil {
				return err
			}
			runtime.Gosched()
		}
		s.tr.end(id)
		if _, err := admin("daemon.Admin/register-member", ov.m1.Addr(), i,
			&daemon.AdminRequest{Op: "register", Key: k + "_m", Value: endpoint}); err != nil {
			return err
		}
	}
	for i := 0; i < calls; i++ {
		k := string(s.g.corpus[i%calls])
		resp, err := admin("daemon.Admin/discover", ov.m2.Addr(), i, &daemon.AdminRequest{Op: "discover", Key: k})
		if err != nil {
			return err
		}
		if !resp.Found {
			return wrongf("daemon discover %q at member 2: not found after an acknowledged register", k)
		}
		id := s.tr.begin(i, 0, "transport.ControlRoundTrip")
		_, _, err = ov.steward.Cluster().ControlRoundTrip(s.ctx, ov.m1.Addr(), transport.FrameStatus, nil)
		s.tr.end(id)
		if err != nil {
			return err
		}
		id = s.tr.begin(i, 0, "transport.RawCall")
		_, _, err = transport.RawCall(s.ctx, ov.m1.Addr(), transport.FrameStatus, nil)
		s.tr.end(id)
		if err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		id := s.tr.begin(i, 0, "daemon.Start/member")
		m, err := daemon.Start(daemonConfig(overlaySeed+10+int64(i), ov.steward.Addr()), func(string, ...any) {})
		s.tr.end(id)
		if err != nil {
			return err
		}
		if err := m.Close(); err != nil {
			return err
		}
	}
	var codecErr error
	req := &daemon.AdminRequest{Op: "discover", Key: "dgemm_v12"}
	resp := &daemon.AdminResponse{Found: true, Values: []string{endpoint}, Logical: 5, Physical: 2}
	for i := 0; i < 32; i++ {
		s.tr.batch(i, "daemon.admin-codec", microBatch, func() {
			for j := 0; j < microBatch; j++ {
				var rq daemon.AdminRequest
				var rp daemon.AdminResponse
				b, err := json.Marshal(req)
				codecErr = errors.Join(codecErr, err, json.Unmarshal(b, &rq))
				b, err = json.Marshal(resp)
				codecErr = errors.Join(codecErr, err, json.Unmarshal(b, &rp))
			}
		})
	}
	if codecErr != nil {
		return codecErr
	}
	if err := ov.validate(s.ctx); err != nil {
		return wrongf("daemons after the layer probes: %v", err)
	}
	s.setMed("daemon.register_steward_us", "us", "daemon.Admin/register-steward", 1e3)
	s.setMed("daemon.register_member_us", "us", "daemon.Admin/register-member", 1e3)
	s.setMed("daemon.discover_us", "us", "daemon.Admin/discover", 1e3)
	s.setMed("daemon.apply_lag_us", "us", "daemon.apply-lag", 1e3)
	s.setMed("daemon.join_ms", "ms", "daemon.Start/member", 1e6)
	s.setMed("daemon.admin_codec_ns", "ns", "daemon.admin-codec", 1)
	s.setMed("transport.control_rtt_ns", "ns", "transport.ControlRoundTrip", 1)
	s.setMed("transport.rawcall_ns", "ns", "transport.RawCall", 1)
	if hop := s.out["transport.wire_ns_per_hop"].Value; hop > 0 {
		s.out.set("transport.wire_unexplained_share", "ratio", 1-s.out["transport.control_rtt_ns"].Value/hop, calls)
	}
	return nil
}
