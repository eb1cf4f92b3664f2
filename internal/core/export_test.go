package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"

	"dlpt/internal/keys"
	"dlpt/internal/ring"
)

// CheckReplicaStore is the replica oracle the schedule tests hold a
// network to right after a replication tick: every live node's replica
// sits on its host's ring successor and deep-equals infoOf(n); no other
// replica exists unless its key was lost to a crash that is not
// recovered yet; and each peer holds as many replicas as it counts.
func CheckReplicaStore(net *Network) error {
	held := make(map[*Peer]int)
	for _, e := range net.slots {
		if e.at != nil {
			held[e.at]++
		}
	}
	for k, e := range net.replicas {
		held[e.at]++
		if net.peers[e.at.ID] != e.at {
			return fmt.Errorf("replica of %q held by %q, which left the ring", k, e.at.ID)
		}
		if net.HasNode(k) {
			return fmt.Errorf("replica of the indexed %q held by key", k)
		}
		if !net.pendingLost[k] {
			return fmt.Errorf("replica of %q on %q: no such node, and none lost to a crash", k, e.at.ID)
		}
	}
	for id, p := range net.peers {
		if held[p] != p.replicas {
			return fmt.Errorf("%q holds %d replicas, counts %d", id, held[p], p.replicas)
		}
	}
	for _, n := range net.nodeList {
		succ, _ := net.ring.Successor(n.host.ID)
		e, ok := net.slotOf(n)
		if !ok {
			return fmt.Errorf("node %q has no replica on successor %q", n.Key, succ)
		}
		if e.at.ID != succ {
			return fmt.Errorf("replica of %q (host %q) indexed on %q, want successor %q", n.Key, n.host.ID, e.at.ID, succ)
		}
		if got, want := e.Replica, infoOf(n); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("replica of %q is stale:\n  got  %+v\n  want %+v", n.Key, got, want)
		}
	}
	return nil
}

// HeldReplica is one entry of the replica store: a snapshot and the
// peer holding it.
type HeldReplica struct {
	At keys.Key
	Replica
}

// ReplicaStore returns every replica net holds, by node key.
func ReplicaStore(net *Network) map[keys.Key]HeldReplica {
	out := make(map[keys.Key]HeldReplica, len(net.replicas))
	for k, e := range net.replicas {
		out[k] = HeldReplica{e.at.ID, e.Replica}
	}
	for _, n := range net.nodeList {
		if e, ok := net.slotOf(n); ok {
			out[n.Key] = HeldReplica{e.at.ID, e.Replica}
		}
	}
	return out
}

// CloneNetwork deep-copies net — its ring, peers, node index (hosts,
// slots and edges relinked to the copies), replica store and crash
// bookkeeping — so a test can run one operation two ways from one state.
// The journal hook and the instruments stay behind.
func CloneNetwork(net *Network) *Network {
	c := *net
	c.Journal, c.Obs, c.Tracer = nil, nil, nil
	c.ring = ring.New()
	for _, id := range net.ring.IDs() {
		c.ring.Insert(id)
	}
	c.hashPos, c.hashPeer, c.peerHash = slices.Clone(net.hashPos), maps.Clone(net.hashPeer), maps.Clone(net.peerHash)
	c.pendingLost = maps.Clone(net.pendingLost)
	c.peers = make(map[keys.Key]*Peer, len(net.peers))
	for id, p := range net.peers {
		c.peers[id] = &Peer{ID: p.ID, Pred: p.Pred, Succ: p.Succ, Capacity: p.Capacity,
			replicas: p.replicas, Processed: p.Processed}
	}
	c.replicas = make(map[keys.Key]held, len(net.replicas))
	for k, e := range net.replicas {
		e.at = c.peers[e.at.ID]
		c.replicas[k] = e
	}
	c.slots = slices.Clone(net.slots)
	for i := range c.slots {
		if e := &c.slots[i]; e.at != nil {
			e.at = c.peers[e.at.ID]
		}
	}
	c.nodes = make(map[keys.Key]*Node, len(net.nodes))
	c.nodeList = make([]*Node, len(net.nodeList))
	for i, n := range net.nodeList {
		m := &Node{Key: n.Key, Father: n.Father, HasFather: n.HasFather, Children: slices.Clone(n.Children),
			Data: slices.Clone(n.Data), LoadPrev: n.LoadPrev, pos: n.pos, stamp: n.stamp}
		m.visits.Store(n.visits.Load())
		c.nodes[n.Key], c.nodeList[i] = m, m
	}
	for id, p := range net.peers {
		for _, n := range p.nodes {
			c.peers[id].adopt(c.nodes[n.Key])
		}
	}
	for _, m := range c.nodeList {
		c.linkChildren(m)
	}
	return &c
}

// buildCanonical is canonicalPass's tree over sorted keys by label, with
// its root. It panics if canonicalLabels did not size the slab exactly.
func buildCanonical(sorted []keys.Key) (want map[keys.Key]*canonNode, root keys.Key, ok bool) {
	slab, _ := canonicalPass(sorted)
	if len(slab) != cap(slab) {
		panic(fmt.Sprintf("canonicalPass opened %d labels into a slab sized %d", len(slab), cap(slab)))
	}
	want = make(map[keys.Key]*canonNode, len(slab))
	for i := range slab {
		want[slab[i].label] = &slab[i]
		if !slab[i].hasFather {
			root = slab[i].label
		}
	}
	return want, root, len(slab) > 0
}

// StripReplicaStructure drops the father and child links from every
// replica net holds, keeping the key, the values and the loads. A
// Replica carries no links, so nothing is left to drop.
func StripReplicaStructure(*Network) {}

// TouchNodes stamps the first n nodes of the index for the next tick.
func TouchNodes(net *Network, n int) {
	for _, nd := range net.nodeList[:n] {
		net.touch(nd)
	}
}

// installNode places a freshly created tree node and links it, as a
// registration does.
func (net *Network) installNode(n *Node, from keys.Key) {
	net.placeNode(n, from)
	net.linkNode(n)
}

// Discover routes a discovery request for key k entering the tree at the
// node entry, not found when there is none.
func (net *Network) Discover(k keys.Key, entry keys.Key, gated bool) RequestResult {
	cur, ok := net.nodes[entry]
	if !ok {
		return RequestResult{Key: k, NotFound: true}
	}
	return net.discover(k, cur, gated)
}

// Lookup returns the values registered under k, routing ungated from a
// random entry node.
func (net *Network) Lookup(k keys.Key, r *rand.Rand) ([]string, bool) {
	res := net.DiscoverRandom(k, false, r)
	if !res.Satisfied {
		return nil, false
	}
	return res.Node.SortedValues(), true
}
