package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"

	"dlpt/internal/keys"
	"dlpt/internal/ring"
)

// CheckReplicaStore is the replica oracle the schedule tests hold a
// network to right after a replication tick: every live node's replica
// sits on its host's ring successor and deep-equals infoOf(n); no other
// replica exists unless its key was lost to a crash that is not
// recovered yet; and the replicas held number exactly the location
// index's entries.
func CheckReplicaStore(net *Network) error {
	held := 0
	for id, p := range net.peers {
		for k := range p.Replicas {
			held++
			if !net.HasNode(k) && !net.pendingLost[k] {
				return fmt.Errorf("replica of %q on %q: no such node, and none lost to a crash", k, id)
			}
		}
	}
	if held != len(net.replicaLoc) {
		return fmt.Errorf("%d replicas held, %d indexed", held, len(net.replicaLoc))
	}
	for _, n := range net.nodeList {
		succ, _ := net.ring.Successor(n.host.ID)
		if loc, ok := net.replicaLoc[n.Key]; !ok || loc != succ {
			return fmt.Errorf("replica of %q (host %q) indexed on %q, want successor %q", n.Key, n.host.ID, loc, succ)
		}
		got, ok := net.peers[succ].Replicas[n.Key]
		if !ok {
			return fmt.Errorf("node %q has no replica on successor %q", n.Key, succ)
		}
		if want := infoOf(n); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("replica of %q is stale:\n  got  %+v\n  want %+v", n.Key, got, want)
		}
	}
	return nil
}

// CloneNetwork deep-copies net — its ring, peers, node index (hosts,
// slots and edges relinked to the copies), replica store and crash
// bookkeeping — so a test can run one operation two ways from one state.
// The catalogue image, the journal hook and the instruments stay behind.
func CloneNetwork(net *Network) *Network {
	c := *net
	c.Journal, c.cat, c.Obs, c.Tracer, c.queue = nil, nil, nil, nil, nil
	c.ring = ring.New()
	for _, id := range net.ring.IDs() {
		c.ring.Insert(id)
	}
	c.hashPos, c.hashPeer, c.peerHash = slices.Clone(net.hashPos), maps.Clone(net.hashPeer), maps.Clone(net.peerHash)
	c.replicaLoc, c.pendingLost, c.dropped = maps.Clone(net.replicaLoc), maps.Clone(net.pendingLost), slices.Clone(net.dropped)
	c.peers = make(map[keys.Key]*Peer, len(net.peers))
	for id, p := range net.peers {
		c.peers[id] = &Peer{ID: p.ID, Pred: p.Pred, Succ: p.Succ, Capacity: p.Capacity,
			Replicas: maps.Clone(p.Replicas), churn: p.churn, Processed: p.Processed}
	}
	c.nodes = make(map[keys.Key]*Node, len(net.nodes))
	c.nodeList = make([]*Node, len(net.nodeList))
	for i, n := range net.nodeList {
		m := &Node{Key: n.Key, Father: n.Father, HasFather: n.HasFather, Children: slices.Clone(n.Children),
			Data: slices.Clone(n.Data), LoadCur: n.LoadCur, LoadPrev: n.LoadPrev, pos: n.pos, stamp: n.stamp}
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
