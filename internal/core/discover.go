package core

import (
	"fmt"
	"math/rand"

	"dlpt/internal/keys"
)

// discover routes a discovery request for key k from the indexed node
// cur (Section 2: "the request moves upward until reaching a node whose
// subtree contains the requested node and then moves downward to this
// node"). When gated is true the request consumes peer capacity at every
// node visit and is ignored by saturated peers (Section 4's request
// model). Every step is RouteStep towards k, over the link of the edge
// it takes (Follow). The walk ends at k's node, or where no edge leads
// towards k.
func (net *Network) discover(k keys.Key, cur *Node, gated bool) RequestResult {
	res := RequestResult{Key: k}
	host := cur.host
	for down := false; ; {
		// The current node receives the request.
		cur.RecordVisit()
		if gated {
			if host.Saturated() {
				res.Dropped = true
				net.Counters.DroppedVisits++
				return res
			}
			host.Processed++
		}
		net.Counters.DiscoveryVisits++
		next, end := RouteStep(cur, k, &down)
		if end {
			// Elsewhere than at k's node, or at a structural node (no
			// data), the key was never declared: the discovery fails.
			if cur.Key == k && cur.HasData() {
				res.Satisfied, res.Node = true, cur
			} else {
				res.NotFound = true
			}
			return res
		}
		nextNode, nextHost, ok := net.Follow(next)
		if !ok {
			res.NotFound = true
			return res
		}
		res.LogicalHops++
		if nextHost != host {
			res.PhysicalHops++
		}
		cur, host = nextNode, nextHost
	}
}

// DiscoverRandom routes a discovery request entering at a uniformly
// random tree node, as in the paper's experiments. A satisfied
// request's Node is the node it reached.
func (net *Network) DiscoverRandom(k keys.Key, gated bool, r *rand.Rand) RequestResult {
	if len(net.nodeList) == 0 {
		return RequestResult{Key: k, NotFound: true}
	}
	return net.discover(k, net.nodeList[r.Intn(len(net.nodeList))], gated)
}

// String summarizes the network.
func (net *Network) String() string {
	return fmt.Sprintf("dlpt{%s, peers=%d, nodes=%d}",
		net.Placement, net.NumPeers(), net.NumNodes())
}
