package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dlpt/internal/keys"
)

// buildNetwork creates a lexicographic-placement network with n peers
// of uniform capacity and returns it with its generator.
func buildNetwork(t *testing.T, n, capacity int, seed int64) (*Network, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	net := NewNetwork(keys.LowerAlnum, PlacementLexicographic)
	for i := 0; i < n; i++ {
		id := keys.LowerAlnum.RandomKey(r, 12, 12)
		if err := net.JoinPeer(id, capacity, r); err != nil {
			t.Fatalf("join peer %d: %v", i, err)
		}
	}
	return net, r
}

func mustValidate(t *testing.T, net *Network) {
	t.Helper()
	if err := net.Validate(); err != nil {
		t.Fatalf("invalid network: %v", err)
	}
}

// labels lists the network's node keys, ascending.
func labels(net *Network) []keys.Key {
	ks := make([]keys.Key, 0, len(net.nodeList))
	for _, n := range net.nodeList {
		ks = append(ks, n.Key)
	}
	keys.SortKeys(ks)
	return ks
}

func TestBootstrapSinglePeer(t *testing.T) {
	net, _ := buildNetwork(t, 1, 10, 1)
	mustValidate(t, net)
	if net.NumPeers() != 1 {
		t.Fatalf("NumPeers = %d", net.NumPeers())
	}
	ids := net.PeerIDs()
	p, _ := net.Peer(ids[0])
	if p.Pred != p.ID || p.Succ != p.ID {
		t.Fatalf("sole peer must self-link: pred=%q succ=%q", p.Pred, p.Succ)
	}
}

func TestJoinManyPeersNoTree(t *testing.T) {
	net, _ := buildNetwork(t, 25, 10, 2)
	mustValidate(t, net)
	if net.NumPeers() != 25 {
		t.Fatalf("NumPeers = %d", net.NumPeers())
	}
}

func TestJoinRejectsDuplicatesAndBadInput(t *testing.T) {
	net, r := buildNetwork(t, 3, 10, 3)
	id := net.PeerIDs()[0]
	if err := net.JoinPeer(id, 10, r); err == nil {
		t.Fatalf("duplicate join must fail")
	}
	if err := net.JoinPeer("ok_id", 0, r); err == nil {
		t.Fatalf("non-positive capacity must fail")
	}
	if err := net.JoinPeer("BAD CAPS", 10, r); err == nil {
		t.Fatalf("id outside alphabet must fail")
	}
}

// TestPaperFigure1aDistributed inserts the binary keys of Figure 1(a)
// and checks the same tree emerges in distributed form.
func TestPaperFigure1aDistributed(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	net := NewNetwork(keys.Binary, PlacementLexicographic)
	for i := 0; i < 4; i++ {
		if err := net.JoinPeer(keys.Binary.RandomKey(r, 10, 10), 100, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []keys.Key{"01", "10101", "10111", "101111"} {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
		mustValidate(t, net)
	}
	want := []keys.Key{"", "01", "101", "10101", "10111", "101111"}
	if got := labels(net); !reflect.DeepEqual(got, want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	if root, ok := net.Root(); !ok || root != keys.Epsilon {
		t.Fatalf("root = %q, want ε", root)
	}
}

func TestInsertBeforeAnyPeerFails(t *testing.T) {
	net := NewNetwork(keys.Binary, PlacementLexicographic)
	r := rand.New(rand.NewSource(1))
	if err := net.InsertKey("01", r); err == nil {
		t.Fatalf("insert without peers must fail")
	}
}

func TestInsertRejectsBadAlphabet(t *testing.T) {
	net, r := buildNetwork(t, 2, 10, 5)
	if err := net.InsertKey("NOT_lower!", r); err == nil {
		t.Fatalf("key outside alphabet must fail")
	}
}

func TestInsertDuplicateKeyAccumulatesData(t *testing.T) {
	net, r := buildNetwork(t, 3, 10, 6)
	if err := net.InsertData("dgemm", "host1", r); err != nil {
		t.Fatal(err)
	}
	if err := net.InsertData("dgemm", "host2", r); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, net)
	if net.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", net.NumNodes())
	}
	vals, ok := net.Lookup("dgemm", r)
	if !ok || len(vals) != 2 {
		t.Fatalf("Lookup = %v, %v", vals, ok)
	}
}

func TestRandomInsertsMatchReferenceTrie(t *testing.T) {
	net, r := buildNetwork(t, 10, 1000, 7)
	for i := 0; i < 300; i++ {
		k := keys.LowerAlnum.RandomKey(r, 1, 10)
		if err := net.InsertKey(k, r); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
	}
	mustValidate(t, net) // includes the reference-trie differential check
	if net.NumNodes() < 300/2 {
		t.Fatalf("suspiciously few nodes: %d", net.NumNodes())
	}
}

func TestPeersJoinAfterTreeBuilt(t *testing.T) {
	net, r := buildNetwork(t, 2, 1000, 8)
	for i := 0; i < 120; i++ {
		if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 2, 8), r); err != nil {
			t.Fatal(err)
		}
	}
	before := net.NumNodes()
	for i := 0; i < 30; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1000, r); err != nil {
			t.Fatalf("late join %d: %v", i, err)
		}
		mustValidate(t, net)
	}
	if net.NumNodes() != before {
		t.Fatalf("joins must not change the tree: %d -> %d", before, net.NumNodes())
	}
	if net.NumPeers() != 32 {
		t.Fatalf("NumPeers = %d", net.NumPeers())
	}
}

func TestLeavePeerTransfersNodes(t *testing.T) {
	net, r := buildNetwork(t, 8, 1000, 9)
	for i := 0; i < 100; i++ {
		if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 2, 8), r); err != nil {
			t.Fatal(err)
		}
	}
	nodes := net.NumNodes()
	for net.NumPeers() > 1 {
		ids := net.PeerIDs()
		if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
			t.Fatalf("leave: %v", err)
		}
		mustValidate(t, net)
		if net.NumNodes() != nodes {
			t.Fatalf("leave lost nodes: %d -> %d", nodes, net.NumNodes())
		}
	}
}

func TestLeaveErrors(t *testing.T) {
	net, r := buildNetwork(t, 1, 10, 10)
	if err := net.LeavePeer("nonexistent_peer"); err == nil {
		t.Fatalf("leaving unknown peer must fail")
	}
	if err := net.InsertKey("abc", r); err != nil {
		t.Fatal(err)
	}
	if err := net.LeavePeer(net.PeerIDs()[0]); err == nil {
		t.Fatalf("last peer with nodes cannot leave")
	}
}

func TestLeaveLastPeerWithoutNodes(t *testing.T) {
	net, _ := buildNetwork(t, 1, 10, 11)
	if err := net.LeavePeer(net.PeerIDs()[0]); err != nil {
		t.Fatalf("empty last peer should leave: %v", err)
	}
	if net.NumPeers() != 0 {
		t.Fatalf("NumPeers = %d", net.NumPeers())
	}
}

func TestChurnInterleavedWithInserts(t *testing.T) {
	net, r := buildNetwork(t, 10, 1000, 12)
	for step := 0; step < 150; step++ {
		switch r.Intn(4) {
		case 0:
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1000, r); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
		case 1:
			if net.NumPeers() > 3 {
				ids := net.PeerIDs()
				if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
					t.Fatalf("step %d leave: %v", step, err)
				}
			}
		default:
			if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 1, 8), r); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestDiscoverFindsEveryInsertedKey(t *testing.T) {
	net, r := buildNetwork(t, 12, 1000, 13)
	inserted := make(map[keys.Key]bool)
	for i := 0; i < 200; i++ {
		k := keys.LowerAlnum.RandomKey(r, 1, 9)
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
		inserted[k] = true
	}
	for k := range inserted {
		res := net.DiscoverRandom(k, false, r)
		if !res.Satisfied {
			t.Fatalf("key %q not found: %+v", k, res)
		}
		if res.PhysicalHops > res.LogicalHops {
			t.Fatalf("physical hops %d exceed logical %d", res.PhysicalHops, res.LogicalHops)
		}
	}
}

func TestDiscoverAbsentKey(t *testing.T) {
	net, r := buildNetwork(t, 4, 1000, 14)
	for _, k := range []keys.Key{"dgemm", "dgemv", "saxpy"} {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	res := net.DiscoverRandom("zzgemm", false, r)
	if !res.NotFound || res.Satisfied {
		t.Fatalf("absent key must be NotFound: %+v", res)
	}
	// Absent key sharing a prefix with an existing one.
	res = net.DiscoverRandom("dgem", false, r)
	if !res.NotFound {
		t.Fatalf("dgem is structural-or-absent, must be NotFound: %+v", res)
	}
	if _, ok := net.Lookup("zz", r); ok {
		t.Fatalf("Lookup of absent key must fail")
	}
}

func TestDiscoverEmptyTree(t *testing.T) {
	net, r := buildNetwork(t, 2, 10, 15)
	res := net.DiscoverRandom("x", false, r)
	if !res.NotFound {
		t.Fatalf("discovery in empty tree must be NotFound")
	}
}

func TestCapacityGatingDropsRequests(t *testing.T) {
	net, r := buildNetwork(t, 2, 3, 16) // tiny capacity
	for _, k := range []keys.Key{"aaa", "aab", "aba", "abb"} {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.ResetUnit()
	dropped, satisfied := 0, 0
	for i := 0; i < 50; i++ {
		res := net.DiscoverRandom("aaa", true, r)
		if res.Dropped {
			dropped++
		}
		if res.Satisfied {
			satisfied++
		}
	}
	if dropped == 0 {
		t.Fatalf("capacity 3 peers must drop some of 50 requests")
	}
	if satisfied == 0 {
		t.Fatalf("some requests must be satisfied before saturation")
	}
	if net.Counters.DroppedVisits == 0 {
		t.Fatalf("drop counter not incremented")
	}
	// After a unit reset, capacity is available again: a request
	// entering directly at its target (one visit) must be satisfied.
	net.ResetUnit()
	if res := net.Discover("aaa", "aaa", true); !res.Satisfied {
		t.Fatalf("fresh unit must satisfy a one-visit request: %+v", res)
	}
}

func TestLoadAccounting(t *testing.T) {
	net, r := buildNetwork(t, 2, 1000, 17)
	for _, k := range []keys.Key{"aa", "ab"} {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.ResetUnit()
	for i := 0; i < 10; i++ {
		net.Discover("aa", "aa", true) // entry == target: 1 visit each
	}
	n, _, _ := net.NodeAt("aa")
	if n.Load() != 10 {
		t.Fatalf("Load() = %d, want 10", n.Load())
	}
	net.ResetUnit()
	if n.LoadPrev != 10 || n.Load() != 0 {
		t.Fatalf("after reset LoadPrev=%d Load()=%d", n.LoadPrev, n.Load())
	}
}

func TestHashedPlacementBuildsSameTree(t *testing.T) {
	// Pre-generate identical peer ids and keys so that the two
	// placements see the same inputs regardless of how many random
	// draws their internal routing consumes.
	gen := rand.New(rand.NewSource(18))
	var ids, ks []keys.Key
	for i := 0; i < 8; i++ {
		ids = append(ids, keys.LowerAlnum.RandomKey(gen, 12, 12))
	}
	for i := 0; i < 150; i++ {
		ks = append(ks, keys.LowerAlnum.RandomKey(gen, 2, 8))
	}
	build := func(p Placement) *Network {
		r := rand.New(rand.NewSource(99))
		net := NewNetwork(keys.LowerAlnum, p)
		for _, id := range ids {
			if err := net.JoinPeer(id, 1000, r); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range ks {
			if err := net.InsertKey(k, r); err != nil {
				t.Fatal(err)
			}
		}
		return net
	}
	lex, hsh := build(PlacementLexicographic), build(PlacementHashed)
	mustValidate(t, lex)
	mustValidate(t, hsh)
	if !reflect.DeepEqual(labels(lex), labels(hsh)) {
		t.Fatalf("placements must yield identical trees")
	}
}

func TestHashedChurn(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	net := NewNetwork(keys.LowerAlnum, PlacementHashed)
	for i := 0; i < 6; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1000, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 2, 8), r); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 40; step++ {
		if r.Intn(2) == 0 {
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1000, r); err != nil {
				t.Fatal(err)
			}
		} else if net.NumPeers() > 2 {
			ids := net.PeerIDs()
			if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		mustValidate(t, net)
	}
}

// TestLexicographicLocalityBeatsHashed verifies the Figure 9 premise:
// under the lexicographic mapping, strictly fewer tree edges cross
// peers than under the hashed mapping.
func TestLexicographicLocalityBeatsHashed(t *testing.T) {
	seed := int64(20)
	measure := func(p Placement) (physical, logical int) {
		r := rand.New(rand.NewSource(seed))
		net := NewNetwork(keys.LowerAlnum, p)
		for i := 0; i < 20; i++ {
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1000, r); err != nil {
				t.Fatal(err)
			}
		}
		var ks []keys.Key
		for i := 0; i < 200; i++ {
			k := keys.LowerAlnum.RandomKey(r, 3, 8)
			if err := net.InsertKey(k, r); err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		for i := 0; i < 500; i++ {
			res := net.DiscoverRandom(ks[r.Intn(len(ks))], false, r)
			physical += res.PhysicalHops
			logical += res.LogicalHops
		}
		return physical, logical
	}
	lexPhys, lexLog := measure(PlacementLexicographic)
	hshPhys, hshLog := measure(PlacementHashed)
	if lexLog == 0 || hshLog == 0 {
		t.Fatalf("no hops measured")
	}
	if lexPhys >= hshPhys {
		t.Fatalf("lexicographic mapping must reduce physical hops: lex=%d hashed=%d",
			lexPhys, hshPhys)
	}
}

func TestRemoveDataCompacts(t *testing.T) {
	net, r := buildNetwork(t, 4, 1000, 21)
	for _, k := range []keys.Key{"abc", "abd"} {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	mustValidate(t, net)
	if !net.RemoveData("abc", "abc") {
		t.Fatalf("RemoveData failed")
	}
	mustValidate(t, net)
	if net.HasNode("abc") {
		t.Fatalf("dataless leaf must be pruned")
	}
	// Structural parent "ab" spliced; only "abd" remains (as root).
	if net.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", net.NumNodes())
	}
	if root, _ := net.Root(); root != keys.Key("abd") {
		t.Fatalf("root = %q, want abd", root)
	}
	if net.RemoveData("abc", "abc") {
		t.Fatalf("second removal must fail")
	}
	if !net.RemoveData("abd", "abd") {
		t.Fatalf("removing the last key failed")
	}
	mustValidate(t, net)
	if net.NumNodes() != 0 {
		t.Fatalf("tree must be empty")
	}
	// Reinsert after emptying works.
	if err := net.InsertKey("xyz", r); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, net)
}

// Removing the last value of a node whose only child, or whose father,
// was lost to a crash nobody recovered yet leaves the compaction at the
// lost neighbour instead of dereferencing it; Recover then rebuilds a
// valid tree. Peers a, ab0, abd and zz host a, ab and abc on three
// different peers.
func TestRemoveDataBesideLostNeighbour(t *testing.T) {
	for _, tc := range []struct {
		name  string
		keys  []keys.Key
		crash keys.Key
	}{
		{"only child lost, no father", []keys.Key{"ab", "abc"}, "abd"},
		{"only child lost", []keys.Key{"a", "ab", "abc"}, "abd"},
		{"father lost", []keys.Key{"a", "ab", "abc"}, "a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(29))
			net := NewNetwork(keys.LowerAlnum, PlacementLexicographic)
			for _, id := range []keys.Key{"a", "ab0", "abd", "zz"} {
				if err := net.JoinPeer(id, 1000, r); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range tc.keys {
				if err := net.InsertKey(k, r); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.FailPeer(tc.crash); err != nil {
				t.Fatal(err)
			}
			if !net.RemoveData("ab", "ab") {
				t.Fatal("RemoveData(ab) found nothing to remove")
			}
			net.Recover()
			mustValidate(t, net)
		})
	}
}

// Validate holds every edge's link to the index: a link to a node out of
// the index, a link to another indexed node, and no link to an indexed
// child each fail it; so do a father link to another indexed node and
// one to a node out of the index.
func TestValidateChecksLinks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(n *Node)
	}{
		{"unindexed node", func(n *Node) { n.Children[0].node = NodeInfo{Key: n.Children[0].Key}.materialize() }},
		{"wrong node", func(n *Node) { n.Children[0].node = n }},
		{"no link", func(n *Node) { n.Children[0].node = nil }},
		{"wrong father", func(n *Node) { n.Children[0].node.up = n.Children[0].node }},
		{"stale father", func(n *Node) { n.Children[0].node.up = NodeInfo{Key: n.Key}.materialize() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, r := buildNetwork(t, 4, 10, 25)
			for i := 0; i < 40; i++ {
				if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 2, 6), r); err != nil {
					t.Fatal(err)
				}
			}
			mustValidate(t, net)
			root, _ := net.Root()
			tc.plant(net.nodes[root])
			if err := net.Validate(); err == nil || !strings.Contains(err.Error(), "does not link") {
				t.Fatalf("Validate = %v, want an error about the link", err)
			}
		})
	}
}

// Validate holds the links to the PGCP tree, not just to each other:
// abc re-hung under a, with a's and ab's child lists edited to match,
// keeps the label set and every pointer mutual, but ab, not a, is abc's
// father in the PGCP tree over {a, ab, abc}.
func TestValidateChecksCanonicalLinks(t *testing.T) {
	net, _ := populate(t, 43, "a", "ab", "abc")
	mustValidate(t, net)
	a, ab, abc := net.nodes["a"], net.nodes["ab"], net.nodes["abc"]
	a.Children = []Child{{Key: "ab", node: ab}, {Key: "abc", node: abc}}
	ab.Children = nil
	abc.Father = "a"
	if err := net.Validate(); err == nil || !strings.Contains(err.Error(), "the PGCP tree's") {
		t.Fatalf("Validate = %v, want an error about the PGCP tree's links", err)
	}
}

// Follow takes a link only to a node in the index: not to a node
// materialized but not yet installed, not to a node another install
// replaced under the same key, not to a node removed from the index;
// and a father's link only to the indexed node its child names.
func TestFollowOnlyIndexedLinks(t *testing.T) {
	net, _ := populate(t, 38, "abc", "abd", "b")
	n := net.nodes["abc"]
	fresh := infoOf(n).materialize()
	if got, _, ok := net.Follow(fresh.Edge()); !ok || got != n {
		t.Fatalf("a materialized node's link reached %p, want the indexed %p", got, n)
	}
	net.installNode(NodeInfo{Key: n.Key, Father: n.Father, HasFather: n.HasFather,
		Children: slices.Clone(n.Children), Data: n.SortedValues()}.materialize(), keys.Epsilon)
	fresh = net.nodes["abc"]
	if got, _, ok := net.Follow(n.Edge()); !ok || got != fresh || got == n {
		t.Fatalf("a replaced node's link reached %p, want its replacement %p", got, fresh)
	}
	mustValidate(t, net)
	net.unindexNode(fresh)
	if got, _, ok := net.Follow(fresh.Edge()); ok {
		t.Fatalf("a removed node's link reached %p", got)
	}
	// The same for a father: abd's edge up, taken before ab is replaced,
	// reaches the replacement, and none once that is removed.
	abd, ab := net.nodes["abd"], net.nodes["ab"]
	up := abd.FatherEdge()
	net.installNode(NodeInfo{Key: ab.Key, Father: ab.Father, HasFather: ab.HasFather,
		Children: slices.Clone(ab.Children), Data: ab.SortedValues()}.materialize(), keys.Epsilon)
	if got, _, ok := net.Follow(up); !ok || got != net.nodes["ab"] || got == ab {
		t.Fatalf("a replaced father's link reached %p, want its replacement %p", got, net.nodes["ab"])
	}
	net.unindexNode(net.nodes["ab"])
	if got, _, ok := net.Follow(abd.FatherEdge()); ok {
		t.Fatalf("a removed father's link reached %p", got)
	}
}

func TestRenamePeerPreservesInvariants(t *testing.T) {
	net, r := buildNetwork(t, 6, 1000, 22)
	for i := 0; i < 60; i++ {
		if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 2, 6), r); err != nil {
			t.Fatal(err)
		}
	}
	// Rename a peer to the key of its largest hosted node (the MLT
	// move), which keeps the mapping invariant.
	var target *Peer
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		if p.NumNodes() > 0 {
			target = p
			break
		}
	}
	if target == nil {
		t.Skip("no peer hosts nodes")
	}
	// The valid rename target is the *circularly* last hosted node
	// key (what MLT picks): for the minimum peer, whose range wraps,
	// that is the largest key at or below its id if any, otherwise
	// the largest wrapped key.
	var ks []keys.Key
	for _, n := range target.Nodes() {
		ks = append(ks, n.Key)
	}
	keys.SortKeys(ks)
	var newID keys.Key
	havePlain := false
	for _, k := range ks {
		if k <= target.ID {
			newID, havePlain = k, true
		}
	}
	if !havePlain {
		newID = ks[len(ks)-1]
	}
	if newID == target.ID || net.ring.Contains(newID) {
		t.Skip("degenerate rename")
	}
	if err := net.RenamePeer(target.ID, newID); err != nil {
		t.Fatalf("rename: %v", err)
	}
	mustValidate(t, net)
}

func TestRenamePeerErrors(t *testing.T) {
	net, _ := buildNetwork(t, 3, 10, 23)
	ids := net.PeerIDs()
	if err := net.RenamePeer("missing", "x"); err == nil {
		t.Fatalf("renaming unknown peer must fail")
	}
	if err := net.RenamePeer(ids[0], ids[1]); err == nil {
		t.Fatalf("renaming onto existing peer must fail")
	}
	if err := net.RenamePeer(ids[0], ids[0]); err != nil {
		t.Fatalf("identity rename must succeed: %v", err)
	}
}

func TestMoveNodeErrors(t *testing.T) {
	net, r := buildNetwork(t, 2, 10, 24)
	if err := net.InsertKey("abc", r); err != nil {
		t.Fatal(err)
	}
	ids := net.PeerIDs()
	if err := net.MoveNode("abc", "missing", ids[0]); err == nil {
		t.Fatalf("move from unknown peer must fail")
	}
	if err := net.MoveNode("abc", ids[0], "missing"); err == nil {
		t.Fatalf("move to unknown peer must fail")
	}
	host, _ := net.HostOf("abc")
	other := ids[0]
	if other == host {
		other = ids[1]
	}
	if err := net.MoveNode("abc", other, host); err == nil {
		t.Fatalf("move of non-hosted node must fail")
	}
}

// Validate holds the peers' node sets to the node index: a node naming
// the wrong host, two entries of one node set swapped, a node on two
// peers' sets, a node released but still indexed, and a node out of its
// slot in the node list each fail it with their own message.
func TestValidateChecksNodeIndex(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		plant      func(n, other *Node)
	}{
		{"wrong host", "names another host", func(n, other *Node) {
			n.host = other.host
		}},
		{"out of slot", "records slot", func(n, _ *Node) {
			set := n.host.nodes
			set[0], set[1] = set[1], set[0]
		}},
		{"on two peers", "listed on both", func(n, other *Node) {
			other.host.adopt(n)
		}},
		{"released but indexed", "hosted nodes vs", func(n, _ *Node) {
			n.host.release(n)
		}},
		{"wrong pos", "of the node list", func(n, other *Node) {
			n.pos, other.pos = other.pos, n.pos
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, r := buildNetwork(t, 4, 10, 25)
			for i := 0; i < 40; i++ {
				if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 2, 6), r); err != nil {
					t.Fatal(err)
				}
			}
			mustValidate(t, net)
			// Two nodes on different peers, the first sharing its peer.
			var n, other *Node
			for _, m := range net.nodeList {
				if m.host.NumNodes() > 1 {
					n = m
					break
				}
			}
			for _, m := range net.nodeList {
				if n != nil && m.host != n.host {
					other = m
					break
				}
			}
			if other == nil {
				t.Fatal("no two peers host nodes, or no peer hosts two")
			}
			tc.plant(n, other)
			if err := net.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error about %q", err, tc.want)
			}
		})
	}
}

func TestMaintenanceCounters(t *testing.T) {
	net, r := buildNetwork(t, 5, 1000, 25)
	before := net.Counters.MaintenanceMsgs
	for i := 0; i < 20; i++ {
		if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 2, 6), r); err != nil {
			t.Fatal(err)
		}
	}
	if net.Counters.MaintenanceMsgs <= before {
		t.Fatalf("inserts must count maintenance messages")
	}
	if net.Counters.MaintenancePhysical > net.Counters.MaintenanceMsgs {
		t.Fatalf("physical %d > total %d", net.Counters.MaintenancePhysical,
			net.Counters.MaintenanceMsgs)
	}
}

func TestStringer(t *testing.T) {
	net, _ := buildNetwork(t, 2, 10, 27)
	if s := net.String(); s == "" {
		t.Fatalf("empty String()")
	}
	if PlacementLexicographic.String() != "lexicographic" ||
		PlacementHashed.String() != "hashed" {
		t.Fatalf("placement names wrong")
	}
}

func TestRandomAccessorsEmpty(t *testing.T) {
	net := NewNetwork(keys.Binary, PlacementLexicographic)
	r := rand.New(rand.NewSource(1))
	if _, ok := net.RandomNodeKey(r); ok {
		t.Fatalf("RandomNodeKey on empty must fail")
	}
	if _, ok := net.RandomPeerID(r); ok {
		t.Fatalf("RandomPeerID on empty must fail")
	}
	if _, ok := net.HostOf("x"); ok {
		t.Fatalf("HostOf with no peers must fail")
	}
}

// TestUpperNodesReceiveMoreLoad checks the premise of Section 3.3:
// with top-down traversal, nodes nearer the root are visited more.
func TestUpperNodesReceiveMoreLoad(t *testing.T) {
	net, r := buildNetwork(t, 4, 1_000_000, 28)
	var ks []keys.Key
	for i := 0; i < 100; i++ {
		k := keys.LowerAlnum.RandomKey(r, 4, 8)
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	net.ResetUnit()
	for i := 0; i < 2000; i++ {
		net.DiscoverRandom(ks[r.Intn(len(ks))], true, r)
	}
	rootKey, ok := net.Root()
	if !ok {
		t.Fatal("no root")
	}
	rn, _, _ := net.NodeAt(rootKey)
	// The root must be far busier than an average leaf.
	leafLoad, leaves := 0, 0
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		for _, n := range p.Nodes() {
			if len(n.Children) == 0 {
				leafLoad += n.Load()
				leaves++
			}
		}
	}
	if leaves == 0 {
		t.Fatal("no leaves")
	}
	if rn.Load()*leaves <= leafLoad*2 {
		t.Fatalf("root load %d should dominate mean leaf load %d/%d",
			rn.Load(), leafLoad, leaves)
	}
}
