package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dlpt/internal/catalog"
	"dlpt/internal/keys"
	"dlpt/internal/persist"
	"dlpt/internal/workload"
)

// nodeFields is everything a test can compare of one indexed node.
type nodeFields struct {
	Key, Father       keys.Key
	HasFather, Shared bool
	Host              keys.Key
	Pos, Slot         int32
	Children          []keys.Key
	Data              []string
	LoadPrev, LoadCur int
	Stamp             uint32
}

// peerFields is one peer: its ring links, ν_P in order and the replicas
// it counts.
type peerFields struct {
	ID, Pred, Succ keys.Key
	Capacity       int
	Nodes          []keys.Key
	Replicas       int
}

// replicaFields is one entry of the replica index.
type replicaFields struct {
	At keys.Key
	Replica
}

// overlayFields is the state of an overlay field for field: the node
// index in its order, each peer in ring order, the replica index, the
// root, the replication epoch and counters, and the crash bookkeeping.
// The maintenance counters are left out.
type overlayFields struct {
	Nodes       []nodeFields
	Peers       []peerFields
	Replicas    map[keys.Key]replicaFields
	Root        keys.Key
	HasRoot     bool
	Epoch       uint32
	Replication ReplicationCounters
	Transferred int
	PendingLost map[keys.Key]bool
}

// fieldsOf reads net's state, checking on the way that every edge links
// the indexed child.
func fieldsOf(t *testing.T, net *Network) overlayFields {
	t.Helper()
	st := overlayFields{Replicas: make(map[keys.Key]replicaFields), Root: net.root, HasRoot: net.hasRoot,
		Epoch: net.epoch, Replication: net.Replication, Transferred: net.Counters.NodesTransferred,
		PendingLost: net.pendingLost}
	for _, n := range net.nodeList {
		for _, c := range n.Children {
			if c.node != net.nodes[c.Key] {
				t.Fatalf("edge %q of %q does not link the indexed child", c.Key, n.Key)
			}
		}
		data := n.Data
		if len(data) == 0 {
			data = nil
		}
		st.Nodes = append(st.Nodes, nodeFields{Key: n.Key, Father: n.Father, HasFather: n.HasFather, Shared: n.shared,
			Host: n.host.ID, Pos: n.pos, Slot: n.slot, Children: n.ChildrenSorted(), Data: data,
			LoadPrev: n.LoadPrev, LoadCur: n.Load(), Stamp: n.stamp})
	}
	for _, id := range net.ring.IDs() {
		p := net.peers[id]
		pf := peerFields{ID: p.ID, Pred: p.Pred, Succ: p.Succ, Capacity: p.Capacity, Replicas: p.replicas}
		for _, n := range p.nodes {
			pf.Nodes = append(pf.Nodes, n.Key)
		}
		st.Peers = append(st.Peers, pf)
	}
	for k, e := range ReplicaStore(net) {
		st.Replicas[k] = replicaFields{At: e.At, Replica: e.Replica}
	}
	return st
}

// diffFields names the first field in which a and b differ, "" if none.
func diffFields(a, b overlayFields) string {
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Sprintf("%d nodes vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if !reflect.DeepEqual(a.Nodes[i], b.Nodes[i]) {
			return fmt.Sprintf("node index slot %d:\n  %+v\n  %+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
	for i := range a.Peers {
		if !reflect.DeepEqual(a.Peers[i], b.Peers[i]) {
			return fmt.Sprintf("peer %d:\n  %+v\n  %+v", i, a.Peers[i], b.Peers[i])
		}
	}
	if !reflect.DeepEqual(a, b) {
		a.Nodes, a.Peers, b.Nodes, b.Peers = nil, nil, nil, nil
		return fmt.Sprintf("\n  %+v\n  %+v", a, b)
	}
	return ""
}

// journalOf records every journaled mutation of net.
func journalOf(net *Network) *[]persist.Record {
	var recs []persist.Record
	net.Journal = func(remove bool, k keys.Key, v string) {
		recs = append(recs, persist.Record{Remove: remove, Key: string(k), Value: v})
	}
	return &recs
}

// checkBatchMatchesPerKey runs entries into two copies of base, as one
// InsertBatch and as InsertData entry by entry, each with a generator
// seeded alike, and holds the two to the same error, state, journal and
// generator position.
func checkBatchMatchesPerKey(t *testing.T, name string, base *Network, entries []KV, seed int64) {
	t.Helper()
	batch, perKey := CloneNetwork(base), CloneNetwork(base)
	jb, jp := journalOf(batch), journalOf(perKey)
	rb, rp := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	errB := batch.InsertBatch(entries, rb)
	var errP error
	for _, e := range entries {
		if errP = perKey.InsertData(e.Key, e.Value, rp); errP != nil {
			break
		}
	}
	if fmt.Sprint(errB) != fmt.Sprint(errP) {
		t.Fatalf("%s: batch error %v, per key %v", name, errB, errP)
	}
	if d := diffFields(fieldsOf(t, batch), fieldsOf(t, perKey)); d != "" {
		t.Fatalf("%s: batch and per-key state differ: %s", name, d)
	}
	if !slices.Equal(*jb, *jp) {
		t.Fatalf("%s: journal %v, per key %v", name, *jb, *jp)
	}
	if b, p := rb.Int63(), rp.Int63(); b != p {
		t.Fatalf("%s: generator's next output %d after the batch, %d per key", name, b, p)
	}
	if err := batch.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// peersOnly is an overlay of n peers with random ids over alpha and no
// node.
func peersOnly(t *testing.T, alpha *keys.Alphabet, pl Placement, n, idLen int, r *rand.Rand) *Network {
	t.Helper()
	net := NewNetwork(alpha, pl)
	for net.NumPeers() < n {
		id := alpha.RandomKey(r, 1, idLen)
		if _, taken := net.Peer(id); !taken {
			if err := net.JoinPeer(id, 1<<20, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return net
}

var abAlphabet = keys.MustAlphabet("ab")

// randomBatch is a batch over the two-letter alphabet: short keys, the
// empty key among them, with repeated keys and repeated key-value pairs.
func randomBatch(r *rand.Rand) []KV {
	entries := make([]KV, 1+r.Intn(40))
	for i := range entries {
		k := abAlphabet.RandomKey(r, 0, 6)
		if i > 0 && r.Intn(4) == 0 {
			k = entries[r.Intn(i)].Key
		}
		entries[i] = KV{Key: k, Value: []string{"x", "y", string(k)}[r.Intn(3)]}
	}
	return entries
}

func kvs(ks ...keys.Key) []KV {
	out := make([]KV, len(ks))
	for i, k := range ks {
		out[i] = KV{Key: k, Value: string(k)}
	}
	return out
}

// emptiedByCrashes is an overlay whose every node was lost to crashes
// while some of their replicas survive on the peers left.
func emptiedByCrashes(t *testing.T, pl Placement, ks []keys.Key) *Network {
	t.Helper()
	for seed := int64(1); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		net := peersOnly(t, keys.LowerAlnum, pl, 12, 4, r)
		for _, k := range ks {
			if err := net.InsertKey(k, r); err != nil {
				t.Fatal(err)
			}
		}
		net.Replicate()
		for _, id := range net.PeerIDs() {
			if p, _ := net.Peer(id); p.NumNodes() > 0 && net.NumPeers() > 1 {
				if err := net.FailPeer(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if net.NumNodes() == 0 && net.NumReplicas() > 0 {
			return net
		}
	}
	t.Fatal("no seed empties the overlay and leaves a replica")
	return nil
}

// TestInsertBatchMatchesPerKey holds InsertBatch into an overlay with
// peers and no node to InsertData entry by entry: the same nodes, hosts,
// fathers, children and links, values, stamps, node-index and ν_P
// order, replicas, journal records and generator position, under both
// placements. The maintenance counters may differ.
func TestInsertBatchMatchesPerKey(t *testing.T) {
	grid := workload.GridCorpus(20000)
	for _, pl := range []Placement{PlacementLexicographic, PlacementHashed} {
		r := rand.New(rand.NewSource(int64(pl) + 1))
		checkBatchMatchesPerKey(t, pl.String()+" grid", peersOnly(t, keys.LowerAlnum, pl, 64, 12, r), kvs(grid...), 7)

		fixed := [][]KV{
			kvs(""),
			kvs("a"),
			kvs("", "a", "ab", "abb", "abbb"),
			kvs("abbb", "abb", "ab", "a", ""),
			kvs("ab", "ba", "a", "b", ""),
			{{"ab", "x"}, {"ab", "x"}},
			{{"ab", "z"}, {"b", "y"}, {"ab", "x"}, {"ab", "y"}, {"ab", "x"}},
			{{"ab", "x"}, {"ba", "y"}, {"ac", "x"}, {"bb", "z"}},
			{{"ac", "x"}, {"ab", "y"}},
		}
		for i, entries := range fixed {
			base := peersOnly(t, abAlphabet, pl, 1+i%4, 5, r)
			checkBatchMatchesPerKey(t, fmt.Sprintf("%v fixed %d", pl, i), base, entries, int64(i))
		}
		for i := 0; i < 300; i++ {
			base := peersOnly(t, abAlphabet, pl, 1+r.Intn(8), 6, r)
			entries := randomBatch(r)
			if i%10 == 0 {
				// A key outside the alphabet in mid-batch: the entries
				// before it are applied, and the error names it.
				entries = slices.Insert(entries, r.Intn(len(entries)+1), KV{Key: "abc", Value: "x"})
			}
			checkBatchMatchesPerKey(t, fmt.Sprintf("%v random %d", pl, i), base, entries, int64(i))
		}

		ks := []keys.Key{"abc", "abd", "b", "bcd", "x"}
		emptied := emptiedByCrashes(t, pl, ks)
		checkBatchMatchesPerKey(t, pl.String()+" emptied by crashes", emptied, kvs(append(ks, "abe", "c")...), 3)
	}
}

// restoreByRecover is RestoreFrom staging the image as replicas and
// rebuilding it through Recover, as it did before the sorted pass: the
// reference the sorted restore is held to.
func restoreByRecover(net *Network, st *persist.LoadedState, r *rand.Rand) error {
	peers := st.Peers
	if peers == nil {
		peers = st.Snapshot.Peers
	}
	for _, p := range peers {
		if err := net.JoinPeer(keys.Key(p.ID), p.Capacity, r); err != nil {
			return err
		}
	}
	net.pendingLost = make(map[keys.Key]bool) // staged as lost, so compaction keeps them
	if err := st.Snapshot.Ascend(func(e catalog.Entry) bool {
		k := keys.Key(e.Key)
		tgt, _ := net.replicaTarget(k)
		net.placeReplica(nil, Replica{Key: k, Data: e.Values}, tgt)
		net.pendingLost[k] = true
		return true
	}); err != nil {
		return err
	}
	net.Recover()
	for _, rec := range st.Journal {
		if rec.Remove {
			net.RemoveData(keys.Key(rec.Key), rec.Value)
		} else if err := net.InsertData(keys.Key(rec.Key), rec.Value, r); err != nil {
			return err
		}
	}
	return net.Validate()
}

// sortedFields is overlayFields less what depends on install order: the
// nodes by key without their index and ν_P slots, the peers without ν_P's
// order, the replicas as one tick leaves them.
func sortedFields(t *testing.T, net *Network) overlayFields {
	t.Helper()
	st := fieldsOf(t, net)
	for i := range st.Nodes {
		st.Nodes[i].Pos, st.Nodes[i].Slot, st.Nodes[i].Shared = 0, 0, false
	}
	slices.SortFunc(st.Nodes, func(a, b nodeFields) int { return keys.Compare(a.Key, b.Key) })
	for i := range st.Peers {
		keys.SortKeys(st.Peers[i].Nodes)
	}
	st.Replication = ReplicationCounters{}
	return st
}

// imageOf captures net as an image and parses it back.
func imageOf(t *testing.T, net *Network) *persist.Snapshot {
	t.Helper()
	snap, err := persist.ParseImage(persist.AppendImage(nil, 1, net.RingState(), net.Catalogue()))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRestoreMatchesRecover holds RestoreFrom to the restore through
// Recover it replaces: from one image and journal, with the snapshot's
// ring and with a newer one, under both placements, the two give the
// same nodes, hosts, links, values and loads, and after one tick the
// same replicas, which pass CheckReplicaStore.
func TestRestoreMatchesRecover(t *testing.T) {
	for _, pl := range []Placement{PlacementLexicographic, PlacementHashed} {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			alpha := keys.LowerAlnum
			ks := workload.GridCorpus(1 + r.Intn(400))
			if seed%2 == 1 {
				alpha, ks = abAlphabet, nil
				for _, e := range randomBatch(r) {
					ks = append(ks, e.Key)
				}
			}
			src := peersOnly(t, alpha, pl, 1+r.Intn(8), 6, r)
			for _, k := range ks {
				if err := src.InsertData(k, "v"+string(k), r); err != nil {
					t.Fatal(err)
				}
				if r.Intn(3) == 0 {
					src.InsertData(k, "w", r)
				}
			}
			st := &persist.LoadedState{Snapshot: imageOf(t, src)}
			for i := 0; i < 10; i++ {
				k := ks[r.Intn(len(ks))]
				st.Journal = append(st.Journal, persist.Record{Remove: r.Intn(2) == 0, Key: string(k), Value: "w"},
					persist.Record{Key: string(k) + string(alpha.Digits()[0]), Value: "j"})
			}
			if seed%4 >= 2 {
				st.Peers = append(slices.Clone(st.Snapshot.Peers), persist.PeerState{ID: strings.Repeat(string(alpha.Digits()[alpha.Size()-1]), 8), Capacity: 5})
			}
			sorted, byRecover := NewNetwork(alpha, pl), NewNetwork(alpha, pl)
			if err := sorted.RestoreFrom(st, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			if err := restoreByRecover(byRecover, st, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			for _, net := range []*Network{sorted, byRecover} {
				net.Replicate()
				if err := CheckReplicaStore(net); err != nil {
					t.Fatalf("%v seed %d: %v", pl, seed, err)
				}
			}
			if d := diffFields(sortedFields(t, sorted), sortedFields(t, byRecover)); d != "" {
				t.Fatalf("%v seed %d: sorted restore and restore by Recover differ: %s", pl, seed, d)
			}
		}
	}
}

// indexOrder lists the node index's keys in slot order.
func indexOrder(net *Network) []keys.Key {
	ks := make([]keys.Key, len(net.nodeList))
	for i, n := range net.nodeList {
		ks[i] = n.Key
	}
	return ks
}

// TestRestoreIsReproducible restores one image twice: the two overlays
// have the same node-index order, so a seeded generator draws the same
// entry nodes on both.
func TestRestoreIsReproducible(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	src := peersOnly(t, keys.LowerAlnum, PlacementLexicographic, 16, 12, r)
	for _, k := range workload.GridCorpus(3000) {
		if err := src.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	st := &persist.LoadedState{Snapshot: imageOf(t, src)}
	var nets [2]*Network
	for i := range nets {
		nets[i] = NewNetwork(keys.LowerAlnum, PlacementLexicographic)
		if err := nets[i].RestoreFrom(st, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := indexOrder(nets[0]), indexOrder(nets[1]); !slices.Equal(a, b) {
		t.Fatal("two restores of one image differ in node-index order")
	}
	ra, rb := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		ea, ha, _ := nets[0].RandomEntry(ra)
		eb, hb, _ := nets[1].RandomEntry(rb)
		if ea != eb || ha != hb {
			t.Fatalf("draw %d: entry %q on %q vs %q on %q", i, ea, ha, eb, hb)
		}
	}
}

// TestRecoverRebuildsInFixedOrder crashes the peer whose nodes include
// the most unreplicated structural nodes Recover has to rebuild, and
// recovers two copies of the crashed overlay: both rebuild them in the
// same node-index order. The hashed placement scatters the structural
// nodes away from the data nodes beneath them.
func TestRecoverRebuildsInFixedOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	net := peersOnly(t, keys.LowerAlnum, PlacementHashed, 16, 12, r)
	for _, k := range workload.GridCorpus(3000) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	var victim keys.Key
	most := 0
	for _, id := range net.PeerIDs() {
		c := CloneNetwork(net)
		if err := c.FailPeer(id); err != nil {
			t.Fatal(err)
		}
		left := c.NumNodes()
		if restored, _ := c.Recover(); c.NumNodes()-left-restored > most {
			victim, most = id, c.NumNodes()-left-restored
		}
	}
	if most < 2 {
		t.Fatalf("no crash leaves two structural nodes to rebuild (at most %d)", most)
	}
	if err := net.FailPeer(victim); err != nil {
		t.Fatal(err)
	}
	a, b := CloneNetwork(net), CloneNetwork(net)
	a.Recover()
	b.Recover()
	mustValidate(t, a)
	if ka, kb := indexOrder(a), indexOrder(b); !slices.Equal(ka, kb) {
		t.Fatalf("two recoveries of one crash (%d structural nodes rebuilt) differ in node-index order", most)
	}
}
