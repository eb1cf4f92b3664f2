package core

import (
	"fmt"
	"math/rand"

	"dlpt/internal/keys"
)

// Discover routes a discovery request for key k, entering the tree at
// the given node (Section 2: "the request moves upward until reaching
// a node whose subtree contains the requested node and then moves
// downward to this node"). When gated is true the request consumes
// peer capacity at every node visit and is ignored by saturated
// peers (Section 4's request model); maintenance-style lookups pass
// gated=false.
func (net *Network) Discover(k keys.Key, entry keys.Key, gated bool) RequestResult {
	res := RequestResult{Key: k}
	cur, host, ok := net.nodeState(entry)
	if !ok {
		res.NotFound = true
		return res
	}
	goingUp := true
	for {
		// The current node receives the request.
		cur.LoadCur++
		if gated {
			if host.Saturated() {
				res.Dropped = true
				net.Counters.DroppedVisits++
				return res
			}
			host.Processed++
		}
		net.Counters.DiscoveryVisits++

		if cur.Key == k {
			// A structural node (no data) means the key was never
			// declared: the discovery fails.
			if cur.HasData() {
				res.Satisfied = true
			} else {
				res.NotFound = true
			}
			return res
		}
		if goingUp && keys.IsPrefix(cur.Key, k) {
			goingUp = false
		}
		var next Child
		if goingUp {
			if !cur.HasFather {
				// Root does not prefix k: the key cannot exist.
				res.NotFound = true
				return res
			}
			next = Child{Key: cur.Father}
		} else {
			q, ok := cur.BestChildFor(k)
			if !ok || !keys.IsPrefix(q.Key, k) {
				// No branch leads towards k: absent key.
				res.NotFound = true
				return res
			}
			next = q
		}
		nextNode, nextHost, ok := net.Follow(next)
		if !ok {
			res.NotFound = true
			return res
		}
		res.LogicalHops++
		if nextHost.ID != host.ID {
			res.PhysicalHops++
		}
		cur, host = nextNode, nextHost
	}
}

// DiscoverRandom routes a discovery request entering at a uniformly
// random tree node, as in the paper's experiments.
func (net *Network) DiscoverRandom(k keys.Key, gated bool, r *rand.Rand) RequestResult {
	entry, ok := net.RandomNodeKey(r)
	if !ok {
		return RequestResult{Key: k, NotFound: true}
	}
	return net.Discover(k, entry, gated)
}

// Lookup returns the values registered under k, routing ungated from
// a random entry point. It is the read-side operation of the public
// API.
func (net *Network) Lookup(k keys.Key, r *rand.Rand) ([]string, bool) {
	res := net.DiscoverRandom(k, false, r)
	if !res.Satisfied {
		return nil, false
	}
	n, _, ok := net.nodeState(k)
	if !ok {
		return nil, false
	}
	return n.SortedValues(), true
}

// Values returns the values stored under k by direct state access on
// the owner peer (no routing, no cost accounting). Engines use it to
// read a node's data after a discovery already routed to it. The
// values come back sorted (see SortedValues).
func (net *Network) Values(k keys.Key) ([]string, bool) {
	n, _, ok := net.nodeState(k)
	if !ok || !n.HasData() {
		return nil, false
	}
	return n.SortedValues(), true
}

// String summarizes the network.
func (net *Network) String() string {
	return fmt.Sprintf("dlpt{%s, peers=%d, nodes=%d}",
		net.Placement, net.NumPeers(), net.NumNodes())
}
