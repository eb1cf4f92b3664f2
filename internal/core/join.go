package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dlpt/internal/keys"
)

// JoinPeer inserts a new peer with the given identifier and capacity.
// Under the lexicographic placement the join request enters the tree
// on a random node and is routed by Algorithms 1 and 2; under the
// hashed placement the peer takes a position on the hashed ring as in
// the original DHT-backed DLPT. The supplied generator selects the
// entry node only.
func (net *Network) JoinPeer(id keys.Key, capacity int, r *rand.Rand) error {
	if capacity <= 0 {
		return fmt.Errorf("core: peer %q with non-positive capacity %d", id, capacity)
	}
	if !net.Alphabet.Valid(id) {
		return fmt.Errorf("core: peer id %q not in alphabet", id)
	}
	if _, exists := net.peers[id]; exists {
		return fmt.Errorf("core: peer %q already present", id)
	}
	if net.NumPeers() == 0 {
		p := NewPeer(id, capacity)
		net.peers[id] = p
		net.ring.Insert(id)
		if net.Placement == PlacementHashed {
			net.hashInsertPeer(id)
		}
		return nil
	}
	var err error
	if net.Placement == PlacementHashed {
		err = net.joinHashed(id, capacity)
	} else if entry, host, ok := net.RandomEntry(r); !ok {
		// No tree yet: hand the request straight to the peer layer,
		// entering the ring at an arbitrary peer.
		start, _ := net.RandomPeerID(r)
		err = net.handleNewPredecessor(start, net.peers[start], id, capacity)
	} else {
		err = net.handlePeerJoin(host, entry, id, capacity)
	}
	if err != nil {
		return err
	}
	// The join moved node responsibility to the joiner and made it its
	// ring predecessor's successor: their replicas follow, paid as
	// transfer traffic.
	p := net.peers[id]
	net.rehome(p, net.peers[p.Pred])
	return nil
}

// handlePeerJoin is Algorithm 1, delivering the PeerJoin message of
// peer P from peer `from` to node entry and on: it climbs until the
// current node's label prefixes P (or the root), then descends towards
// the highest node not above P, whose host takes the request on to the
// peer layer.
func (net *Network) handlePeerJoin(from, entry, P keys.Key, capacity int) error {
	at, down := Child{Key: entry}, false
	for {
		n, p, ok := net.Follow(at)
		if !ok {
			return fmt.Errorf("core: PeerJoin addressed to absent node %q", at.Key)
		}
		net.charge(1, from != p.ID)
		from = p.ID
		if !down && !keys.IsPrefix(n.Key, P) && n.HasFather {
			at = n.FatherEdge()
			continue
		}
		down = true // the root, if not a prefix of P, turns the request down
		q, ok := n.MaxChildAtMost(P, true)
		if !ok {
			// n is the highest node <= P known here; delegate to the
			// peer layer on n's host ("send to host", line 1.16).
			return net.handleNewPredecessor(p.ID, p, P, capacity)
		}
		at = q
	}
}

// handleNewPredecessor is Algorithm 2, delivering the NewPredecessor
// message of peer P from peer `from` to peer q and on, extended with the
// wrap-around termination the paper leaves implicit: the request walks
// successors until P falls within (pred(Q), Q], then P is installed as
// Q's new predecessor and takes over the tree nodes now in its range.
// YourInformation and UpdateSuccessor are applied inline and accounted
// as messages.
func (net *Network) handleNewPredecessor(from keys.Key, q *Peer, P keys.Key, capacity int) error {
	for {
		net.charge(1, from != q.ID)
		if P == q.ID {
			return fmt.Errorf("core: joining peer id %q collides with existing peer", P)
		}
		if keys.BetweenRightIncl(P, q.Pred, q.ID) {
			break
		}
		from, q = q.ID, net.peers[q.Succ]
	}
	newp := NewPeer(P, capacity)
	newp.Pred = q.Pred
	newp.Succ = q.ID

	// Dispatch ν_Q between P and Q by identifier (lines 2.06-2.07,
	// circular form): nodes in (pred(Q), P] move to P.
	moved := q.cede(newp, func(n *Node) bool { return keys.BetweenRightIncl(n.Key, q.Pred, P) })
	net.Counters.NodesTransferred += moved
	// YourInformation to P (1 message carrying pred/succ/nodes).
	net.charge(1, true)
	// UpdateSuccessor to pred(Q).
	net.charge(1, q.Pred != q.ID)
	if pred, ok := net.peers[q.Pred]; ok {
		pred.Succ = P
	}
	q.Pred = P
	net.peers[P] = newp
	net.ring.Insert(P)
	return nil
}

// joinHashed places a peer on the hashed ring (the DHT-style mapping
// of the original DLPT). The DHT traffic is modelled with the
// standard Chord bounds: ceil(log2 N) routing messages for the join
// lookup plus ceil(log2 N)^2 messages to repair the finger tables
// that reference the new region (Stoica et al., Section 4); node
// states whose hash now maps to the new peer move over.
func (net *Network) joinHashed(id keys.Key, capacity int) error {
	logN := int(math.Ceil(math.Log2(float64(net.NumPeers() + 1))))
	lookupCost := logN + logN*logN
	net.charge(lookupCost, true)

	// The peer that currently owns the new peer's hash position will
	// cede part of its range.
	ownerID, _ := net.hashHostOf(hash64(id))
	owner := net.peers[ownerID]
	net.hashInsertPeer(id)
	newp := NewPeer(id, capacity)
	net.peers[id] = newp
	net.ring.Insert(id)
	net.relink(id)

	moved := owner.cede(newp, func(n *Node) bool { h, _ := net.HostOf(n.Key); return h == id })
	net.Counters.NodesTransferred += moved
	net.charge(moved, true)
	return nil
}

// relink repairs the pred/succ links of id and its ring neighbours
// from the ring bookkeeping (used by the hashed join/leave paths,
// where the lexicographic links are bookkeeping only).
func (net *Network) relink(id keys.Key) {
	p := net.peers[id]
	succ, _ := net.ring.Successor(id)
	pred, _ := net.ring.Predecessor(id)
	p.Succ = succ
	p.Pred = pred
	net.peers[succ].Pred = id
	net.peers[pred].Succ = id
}

// dropPeer takes p off the ring and out of the peer map, linking its
// ring neighbours to each other.
func (net *Network) dropPeer(p *Peer) {
	net.peers[p.Pred].Succ, net.peers[p.Succ].Pred = p.Succ, p.Pred
	delete(net.peers, p.ID)
	net.ring.Remove(p.ID)
	if net.Placement == PlacementHashed {
		net.hashRemovePeer(p.ID)
	}
}

// LeavePeer removes a peer gracefully: its tree nodes transfer to the
// peers that become responsible for them, and ring links are mended.
// Removing the last peer while tree nodes remain is an error.
func (net *Network) LeavePeer(id keys.Key) error {
	p, ok := net.peers[id]
	if !ok {
		return fmt.Errorf("core: leave of unknown peer %q", id)
	}
	if net.NumPeers() == 1 && p.NumNodes() > 0 {
		return fmt.Errorf("core: last peer %q cannot leave while hosting %d nodes",
			id, p.NumNodes())
	}
	if net.NumPeers() == 1 {
		clear(net.replicas) // all of them its own
		net.dropPeer(p)
		return nil
	}
	net.charge(2, true) // link-repair notifications
	if net.Placement == PlacementHashed {
		// Finger tables referencing the leaver must be repaired
		// (Chord bound, as in joinHashed).
		logN := int(math.Ceil(math.Log2(float64(net.NumPeers()))))
		net.charge(logN*logN, true)
	}
	// Mend the ring first so HostOf resolves without the leaver.
	net.dropPeer(p)
	var adopters []*Peer
	for _, n := range p.nodes { // the leaver's ν_P goes with it
		host, _ := net.HostOf(n.Key)
		to := net.peers[host]
		to.adopt(n)
		if !slices.Contains(adopters, to) {
			adopters = append(adopters, to)
		}
	}
	moved := len(p.nodes)
	net.Counters.NodesTransferred += moved
	net.charge(moved, true)
	// The leaver hands its replica set over on the way out (part of
	// the departure transfer), which puts its predecessor's on their new
	// target; then the adopters' new hosting drives the usual re-homing.
	targets, handed := make(map[*Peer]bool), 0
	pred := net.peers[p.Pred] // the host of every live node whose replica it held
	succ := net.successorOf(pred)
	for _, n := range pred.nodes {
		if e, ok := net.slotOf(n); ok && e.at == p {
			moveReplica(e, succ)
			targets[succ] = true
			handed++
		}
	}
	for _, e := range net.replicas {
		if e.at == p {
			tgt, _ := net.replicaTarget(e.Key)
			net.placeReplica(nil, e.Replica, tgt)
			targets[tgt] = true
			handed++
		}
	}
	net.countTransfers(len(targets), handed)
	net.rehome(adopters...)
	return nil
}
