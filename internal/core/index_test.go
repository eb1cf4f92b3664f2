package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/workload"
)

// placementNodeState resolves node k the way routing did before the node
// index: the placement names the host, the peer map yields it, and a
// scan of the host's own node set yields the node. It is the oracle the index is
// held against.
func placementNodeState(net *core.Network, k keys.Key) (*core.Node, *core.Peer, bool) {
	host, ok := net.HostOf(k)
	if !ok {
		return nil, nil, false
	}
	p, _ := net.Peer(host)
	if p == nil {
		return nil, nil, false
	}
	for _, n := range p.Nodes() {
		if n.Key == k {
			return n, p, true
		}
	}
	return nil, p, false
}

// nodeKeys lists the node keys p runs, ascending.
func nodeKeys(p *core.Peer) []keys.Key {
	var ks []keys.Key
	for _, n := range p.Nodes() {
		ks = append(ks, n.Key)
	}
	keys.SortKeys(ks)
	return ks
}

// hosted lists the node keys the peers run, in ring order.
func hosted(net *core.Network) []keys.Key {
	var ks []keys.Key
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		ks = append(ks, nodeKeys(p)...)
	}
	return ks
}

// TestNodeIndexMatchesPlacement drives a seeded schedule of every
// operation that creates, removes or moves a tree node — inserts,
// removals with compaction, joins, leaves, a crash with an insert before
// its recovery, MLT balancing rounds under binding capacities, replication
// ticks — on both placements. After every step, every hosted node key,
// every key the schedule removed or lost and a set of keys that never
// existed must resolve to the same node, host and presence through the
// index (NodeAt) as through the placement. The oracle names a peer even
// for an absent node, so hosts are compared where the node exists.
func TestNodeIndexMatchesPlacement(t *testing.T) {
	for _, placement := range []core.Placement{core.PlacementLexicographic, core.PlacementHashed} {
		t.Run(placement.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(28))
			net := core.NewNetwork(keys.LowerAlnum, placement)
			absent := []keys.Key{"", "zzzz", "0", "svc", "a0a0a0a0a0a0a0"}
			var gone []keys.Key // keys removed or lost so far
			check := func(step string) {
				t.Helper()
				run := hosted(net)
				if len(run) != net.NumNodes() {
					t.Fatalf("%s: peers host %d nodes, the index holds %d", step, len(run), net.NumNodes())
				}
				for _, set := range [][]keys.Key{run, gone, absent} {
					for _, k := range set {
						n, p, ok := net.NodeAt(k)
						wn, wp, wok := placementNodeState(net, k)
						if ok != wok || ok && (n != wn || p != wp) {
							t.Fatalf("%s: node %q: index (%p, %p, %v), placement (%p, %p, %v)",
								step, k, n, p, ok, wn, wp, wok)
						}
					}
				}
			}
			join := func(capacity int) {
				t.Helper()
				if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), capacity, r); err != nil {
					t.Fatal(err)
				}
				check("join")
			}
			for i := 0; i < 6; i++ {
				join(8)
			}
			corpus := workload.GridCorpus(300)
			for i, k := range corpus {
				if err := net.InsertKey(k, r); err != nil {
					t.Fatal(err)
				}
				if i%10 == 0 {
					check(fmt.Sprintf("insert %q", k))
				}
			}
			check("inserts")
			for _, k := range corpus[:60] {
				if !net.RemoveData(k, string(k)) {
					t.Fatalf("remove %q: not registered", k)
				}
				gone = append(gone, k)
				check(fmt.Sprintf("remove %q", k))
			}
			moves := 0 // balancing moves applied
			for round := 0; round < 4; round++ {
				join(8)
				ids := net.PeerIDs()
				if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
				check("leave")

				net.Replicate()
				check("replicate")
				ids = net.PeerIDs()
				var victim *core.Peer
				if round == 0 {
					// Losing the root makes the next insert install its key
					// as a new root, over the node already indexed under it.
					root, _ := net.Root()
					_, victim, _ = net.NodeAt(root)
				} else {
					victim, _ = net.Peer(ids[r.Intn(len(ids))])
				}
				lost := nodeKeys(victim)
				if err := net.FailPeer(victim.ID); err != nil {
					t.Fatal(err)
				}
				gone = append(gone, lost...)
				check("crash")
				for _, k := range hosted(net)[:1] {
					_ = net.InsertKey(k, r) // may route into a lost node
				}
				check("insert after the crash")
				net.Recover()
				check("recover")

				if placement == core.PlacementLexicographic {
					// Balancing renames peers along the lexicographic ring;
					// the hashed placement has no such move.
					net.ResetUnit()
					for i := 0; i < 400; i++ {
						net.DiscoverRandom(corpus[60+r.Intn(len(corpus)-60)], false, r)
					}
					net.ResetUnit()
					n, err := lb.RunRound(net, lb.MLT{})
					if err != nil {
						t.Fatal(err)
					}
					moves += n
					check("balance")
				}
				if err := net.Validate(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if placement == core.PlacementLexicographic && moves == 0 {
				t.Fatal("MLT moved nothing: the capacities do not bind")
			}
		})
	}
}
