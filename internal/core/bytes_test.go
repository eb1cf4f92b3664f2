package core_test

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// heap is the live heap after two collections.
func heap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// gridNetwork is a 64-peer overlay holding the 20,000-key grid
// catalogue, with the live heap the catalogue added to it.
func gridNetwork(t testing.TB) (*core.Network, []keys.Key, *rand.Rand, int64) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for i := 0; i < 64; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 100, r); err != nil {
			t.Fatal(err)
		}
	}
	corpus := workload.GridCorpus(20000)
	before := heap()
	for _, k := range corpus {
		if err := net.InsertData(k, string(k), r); err != nil {
			t.Fatal(err)
		}
	}
	return net, corpus, r, heap() - before
}

// TestBytesPerKey is the memory budget of the distributed tree: the
// live heap a 20,000-key grid catalogue adds to a 64-peer overlay, per
// key. It covers the nodes, their children and values, and the peers'
// and network's node indexes; the key strings themselves are the
// corpus's and are not counted. Two maps per node read 550 B/key;
// sorted slices of child keys read 266, of edges linking each child's
// node ~287; a slot-indexed slice for each peer's node set instead of a
// map ~253. The ceiling sits a twentieth above that.
func TestBytesPerKey(t *testing.T) {
	if raceDetector {
		t.Skip("heap readings are not meaningful under the race detector")
	}
	net, corpus, _, added := gridNetwork(t)
	perKey := float64(added) / float64(len(corpus))
	runtime.KeepAlive(net)
	runtime.KeepAlive(corpus)
	t.Logf("%.0f B/key over %d keys, %d nodes", perKey, len(corpus), net.NumNodes())
	const ceiling = 266
	if perKey > ceiling {
		t.Fatalf("%.0f bytes per key, ceiling %d", perKey, ceiling)
	}
}

// BenchmarkJoinLeave times one join plus one leave on TestBytesPerKey's
// 20,000-key grid overlay with every node replicated: the pair's
// re-homing included, it is what a concurrent engine holds its write
// lock for.
func BenchmarkJoinLeave(b *testing.B) {
	net, _, r, _ := gridNetwork(b)
	net.Replicate()
	for b.Loop() {
		id := keys.LowerAlnum.RandomKey(r, 12, 12)
		if err := net.JoinPeer(id, 100, r); err != nil {
			b.Fatal(err)
		}
		if err := net.LeavePeer(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscover times one ungated discovery of a catalogue key from
// a random entry node on TestBytesPerKey's grid overlay: the routing step
// every engine's hops run.
func BenchmarkDiscover(b *testing.B) {
	net, corpus, r, _ := gridNetwork(b)
	for b.Loop() {
		if res := net.DiscoverRandom(corpus[r.Intn(len(corpus))], false, r); !res.Satisfied {
			b.Fatalf("discovery of %q not satisfied", res.Key)
		}
	}
}

// TestAllocsPerDiscover holds BenchmarkDiscover's discovery to no
// allocation: a routing step reads the node's edges and links in place.
func TestAllocsPerDiscover(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, corpus, r, _ := gridNetwork(t)
	allocs := testing.AllocsPerRun(2000, func() {
		net.DiscoverRandom(corpus[r.Intn(len(corpus))], false, r)
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocs per discovery, want none", allocs)
	}
}

// gridBatch is a 64-peer overlay with no node, and the 20,000-key grid
// catalogue as one batch, each key its own value.
func gridBatch(t testing.TB) (*core.Network, []core.KV) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for i := 0; i < 64; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 100, r); err != nil {
			t.Fatal(err)
		}
	}
	corpus := workload.GridCorpus(20000)
	entries := make([]core.KV, len(corpus))
	for i, k := range corpus {
		entries[i] = core.KV{Key: k, Value: string(k)}
	}
	return net, entries
}

// BenchmarkInsertBatch times the set-up every engine workload runs: the
// 20,000-key grid batch into an empty 64-peer overlay, routed key by key
// (InsertData) and in InsertBatch's sorted pass.
func BenchmarkInsertBatch(b *testing.B) {
	base, entries := gridBatch(b)
	for _, mode := range []string{"per-key", "batch"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, r := core.CloneNetwork(base), rand.New(rand.NewSource(2))
				b.StartTimer()
				if mode == "batch" {
					if err := net.InsertBatch(entries, r); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for _, e := range entries {
					if err := net.InsertData(e.Key, e.Value, r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestAllocsPerBatchInsert is the allocation budget of BenchmarkInsertBatch's
// sorted pass: each key's values, the canonical pass's slab and child
// slices, the nodes, the node index and the growth of each ν_P. It reads
// 52,778 or 52,779 allocations for 20,000 keys and 21,056 nodes; the same
// batch routed key by key reads 51,791.
func TestAllocsPerBatchInsert(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	base, entries := gridBatch(t)
	net, r := core.CloneNetwork(base), rand.New(rand.NewSource(2))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	if err := net.InsertBatch(entries, r); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - before
	t.Logf("%d allocations for %d keys and %d nodes", allocs, len(entries), net.NumNodes())
	const ceiling = 52800
	if allocs > ceiling {
		t.Fatalf("%d allocations for a %d-key batch, ceiling %d", allocs, len(entries), ceiling)
	}
}

// TestReplicaHeapFlat replays a churning writer's cadence on a 16-peer
// overlay: every write registers a fresh versioned key and unregisters
// the one registered 64 writes before, with a replication tick every 500
// writes and a join or a leave every 2000. The live set stays the same
// size, so the heap after 4N writes must stay within a few percent of
// the heap after N: the replica maps may not keep room for every key
// they ever held.
func TestReplicaHeapFlat(t *testing.T) {
	if raceDetector {
		t.Skip("heap readings are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(3))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	join := func() {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<20, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		join()
	}
	corpus := workload.GridCorpus(4000)
	for _, k := range corpus {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	const lag = 64
	version := func(i int) keys.Key { return corpus[i%len(corpus)] + keys.Key(strconv.Itoa(i)) }
	writes := 0
	replay := func(until int) {
		for ; writes < until; writes++ {
			if err := net.InsertKey(version(writes), r); err != nil {
				t.Fatal(err)
			}
			if old := writes - lag; old >= 0 && !net.RemoveData(version(old), string(version(old))) {
				t.Fatalf("unregister %q: not registered", version(old))
			}
			if (writes+1)%500 == 0 {
				net.Replicate()
			}
			if (writes+1)%4000 == 0 {
				join()
			} else if (writes+1)%2000 == 0 {
				ids := net.PeerIDs()
				if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	const n = 10000
	replay(n)
	atN := heap()
	replay(4 * n)
	at4N := heap()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("live heap %.2f MB after %d writes, %.2f MB after %d", float64(atN)/1e6, n, float64(at4N)/1e6, 4*n)
	if at4N > atN+atN/20 {
		t.Fatalf("live heap grew from %d to %d bytes with a steady live set", atN, at4N)
	}
}

// TestAllocsPerWrite is the allocation budget of a write on the
// TestBytesPerKey overlay: registering one more value under a declared
// key, routed from a random entry node, and unregistering it. The
// routed hops allocate nothing, so what is left is the value slice's
// growth. A message queue popped by reslicing read 14 per cycle.
func TestAllocsPerWrite(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, corpus, r, _ := gridNetwork(t)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		k := corpus[i%len(corpus)]
		i++
		if err := net.InsertData(k, "extra", r); err != nil {
			t.Fatal(err)
		}
		if !net.RemoveData(k, "extra") {
			t.Fatalf("unregister %q: not registered", k)
		}
	})
	t.Logf("%.2f allocs per register/unregister cycle", allocs)
	const ceiling = 2
	if allocs > ceiling {
		t.Fatalf("%.2f allocs per write cycle, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkWrite times TestAllocsPerWrite's cycle: one more value
// registered under a declared key, routed from a random entry node by
// Algorithm 3, and unregistered.
func BenchmarkWrite(b *testing.B) {
	net, corpus, r, _ := gridNetwork(b)
	i := 0
	for b.Loop() {
		k := corpus[i%len(corpus)]
		i++
		if err := net.InsertData(k, "extra", r); err != nil {
			b.Fatal(err)
		}
		if !net.RemoveData(k, "extra") {
			b.Fatalf("unregister %q: not registered", k)
		}
	}
}

// TestAllocsPerJournaledWrite is TestAllocsPerWrite on a durable
// overlay: a journal hook installed and a snapshot captured. A journaled
// write pays nothing for the next image, which is the last one folded
// with the journal.
func TestAllocsPerJournaledWrite(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, corpus, r, _ := gridNetwork(t)
	net.Journal = func(bool, keys.Key, string) {}
	net.CaptureSnapshot(false)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		k := corpus[i%len(corpus)]
		i++
		if err := net.InsertData(k, "extra", r); err != nil {
			t.Fatal(err)
		}
		if !net.RemoveData(k, "extra") {
			t.Fatalf("unregister %q: not registered", k)
		}
	})
	t.Logf("%.2f allocs per journaled register/unregister cycle", allocs)
	const ceiling = 1
	if allocs > ceiling {
		t.Fatalf("%.2f allocs per journaled write cycle, ceiling %d", allocs, ceiling)
	}
}

// TestAllocsPerReplicaTick is the allocation budget of a replication
// tick on the TestBytesPerKey overlay, every node already replicated:
// the plan and the install of 1,000 stamped nodes and of 10,000, each
// batch installed as planned and as a REPLICA frame decodes it (the
// snapshots alone). The batches share one array and each snapshot shares
// its node's values, so every tick allocates the same few slices, not a
// copy per node.
func TestAllocsPerReplicaTick(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	net, _, _, _ := gridNetwork(t)
	net.Replicate()
	for _, path := range []string{"planned", "decoded"} {
		var per [2]float64
		for i, n := range []int{1000, 10000} {
			shipped := 0
			per[i] = testing.AllocsPerRun(20, func() {
				core.TouchNodes(net, n)
				shipped = 0
				for _, b := range net.ReplicaPlan() {
					if path == "decoded" {
						b = core.ReplicaBatch{From: b.From, To: b.To, Infos: b.Infos}
					}
					shipped += net.AcceptReplicas(b)
				}
			})
			if shipped != n {
				t.Fatalf("a tick after %d stamps shipped %d nodes", n, shipped)
			}
			t.Logf("%.0f allocs per tick shipping %d nodes %s", per[i], n, path)
		}
		const ceiling = 4
		if per[0] != per[1] || per[1] > ceiling {
			t.Fatalf("%.0f and %.0f allocs per tick shipping 1,000 and 10,000 nodes %s, want the same, at most %d",
				per[0], per[1], path, ceiling)
		}
	}
}
