// Package core implements the self-contained DLPT protocol of
// RR-6557 Section 3: a Proper Greatest Common Prefix tree of service
// keys maintained directly over a bidirectional ring of peers, with
// peer insertion routed through the tree (Algorithms 1-2), data
// insertion growing the tree (Algorithm 3), discovery routing, and
// capacity-limited request processing.
//
// The package is a deterministic simulation core in the shape of the
// paper's per-node and per-peer handlers: a PeerJoin, NewPredecessor or
// DataInsertion message travels as one loop from node to node or peer to
// peer, and each handler applies the messages it sends (SearchingHost,
// Host, UpdateChild, YourInformation, UpdateSuccessor) by a call. Every
// delivery is one maintenance message, physical when the receiving host
// differs from the sender. Two placements are provided: the
// lexicographic mapping contributed by the paper (host(n) = lowest peer
// id >= n, wrapping) and the hashed Chord-style mapping of the original
// DLPT (the "random mapping" baseline of Figure 9).
//
// Documented deviations from the paper's pseudo-code:
//
//   - Algorithm 1 line 1.04 tests "P ∉ Prefixes(p)" while the text
//     says the upward phase stops at "a node that is a prefix of P or
//     the root"; we follow the text (stop when p prefixes P).
//   - Algorithm 3 line 3.30 sends the new sibling node with father p;
//     structurally its father is the newly created GCP(p,k) node, so
//     we use that.
//   - A request runs to completion before the next one starts, so no
//     message can reach a node that a SearchingHost is still placing; a
//     deployment would hold such a message until the node exists.
//   - Algorithm 3 adds the key being placed to C_p right after it sends
//     SearchingHost, so the host search's descent excludes that key from
//     the candidate children: it has no node yet.
//   - After SearchingHost bottoms out, the paper hands the node to
//     the local peer; that peer is not always the key's successor, so
//     we finish with an explicit peer-level ring walk to the owner.
//     The walk is counted as maintenance traffic.
//   - A batch into an overlay with no node (InsertBatch) is built in one
//     sorted pass, not routed entry by entry; it leaves the state
//     Algorithm 3 leaves, and each node is charged its Host message
//     (plus, hashed, the owner lookup) in place of the routed hops.
//
// A node's children and values are sorted slices, shifted in place
// under the engine's write lock (Node); a routing step reaches the father
// or the one child towards a key (a binary search over one symbol)
// through a link (Child, Follow); a node's placement is its index entry
// and its host, in whose unordered node set ν_P it records its slot
// (Peer). Passes over every node range the index's list, not the peers.
package core

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"

	"dlpt/internal/keys"
)

// Node is the state of one logical tree node, held by the peer
// currently hosting it. Its father and children are linked edges
// (FatherEdge, Child), taken through Follow and checked by Validate.
// Siblings differ at the first symbol after their father's key, so the
// edges are ordered by that symbol too (BestChildFor). The father link is
// the node Father names, or nil: written under the write lock with the
// child links (linkNode, load, rebuildLinks, compactNode's splice), and
// cleared where Algorithm 3 re-parents a node until linkNode links the
// new father. Follow takes it while that node is in the index.
//
// Children (by key) and Data are ascending and duplicate-free. They
// change in place, only through addChild, removeChild, addValue and
// removeValue, and only under the write lock; a slice handed out from
// under the lock must therefore be a copy (SortedValues, ChildrenSorted),
// or a later mutation shifts the caller's elements. The one exception
// is copy on ship: infoOf, under the write lock, hands Data to a
// replica as it is and marks it shared, and the next addValue or
// removeValue writes a fresh slice, leaving the shipped one as it was.
type Node struct {
	Key       keys.Key
	Father    keys.Key
	HasFather bool
	shared    bool  // Data is held by a replica too: the next value write replaces it
	slot      int32 // its slot in the host's ν_P (Peer.nodes), kept by adopt and release
	Children  []Child
	Data      []string

	// visits counts the requests received during the current time unit
	// (Load), under the read lock or the write lock; ResetUnit moves it to
	// LoadPrev (the l_n of Section 3.3, the input of the MLT heuristic).
	LoadPrev int
	visits   atomic.Int64

	host *Peer // the peer running the node, set only by Peer.adopt
	up   *Node // the father link (see above)
	pos  int32 // the node's slot in Network.nodeList; -1 out of the index
	// stamp is the replication epoch in which the node was created or
	// last changed what infoOf ships, its values or loads
	// (Network.touch): the next ReplicaPlan ships it. The epoch wraps
	// harmlessly: a stale stamp that matches again only re-ships an
	// unchanged node.
	stamp uint32
}

// Child is one tree edge: the child's key, which orders the edges, and a
// link to the child's node, written only by addChild, linkNode, load and
// rebuildLinks and followed only while that node is indexed (Follow).
type Child struct {
	Key  keys.Key
	node *Node
}

// Edge returns an edge linked to n.
func (n *Node) Edge() Child { return Child{Key: n.Key, node: n} }

// FatherEdge returns the edge up to n's father: the step a climb takes.
func (n *Node) FatherEdge() Child { return Child{Key: n.Father, node: n.up} }

// edge returns the position of child key k among n's edges, or where it
// would be inserted.
func (n *Node) edge(k keys.Key) (int, bool) { return slices.BinarySearchFunc(n.Children, k, edgeCmp) }

func edgeCmp(c Child, k keys.Key) int { return strings.Compare(string(c.Key), string(k)) }

// addChild adds the edge to k, linked to c: the child's node, or nil
// when it is not indexed yet (linkNode links it).
func (n *Node) addChild(k keys.Key, c *Node) {
	if i, found := n.edge(k); !found {
		n.Children = slices.Insert(n.Children, i, Child{Key: k, node: c})
	}
}

func (n *Node) removeChild(k keys.Key) {
	if i, found := n.edge(k); found {
		n.Children = slices.Delete(n.Children, i, i+1)
	}
}

// addValue and removeValue write Data in place unless it is shared;
// then they write a fresh slice, and a removal that empties it leaves
// nil.
func (n *Node) addValue(v string) bool {
	i, found := slices.BinarySearch(n.Data, v)
	if found {
		return false
	}
	if n.shared {
		// Clipped, the slice has no room: Insert moves it to a new array.
		n.Data, n.shared = slices.Clip(n.Data), false
	}
	n.Data = slices.Insert(n.Data, i, v)
	return true
}

func (n *Node) removeValue(v string) bool {
	i, found := slices.BinarySearch(n.Data, v)
	switch {
	case !found:
		return false
	case !n.shared:
		n.Data = slices.Delete(n.Data, i, i+1)
	case len(n.Data) == 1:
		n.Data, n.shared = nil, false
	default:
		n.Data, n.shared = slices.Concat(n.Data[:i], n.Data[i+1:]), false
	}
	return true
}

// HasData reports whether any value is registered at the node.
func (n *Node) HasData() bool { return len(n.Data) > 0 }

// SortedValues returns a copy of the registered values in
// lexicographic order, nil when there are none.
func (n *Node) SortedValues() []string {
	if len(n.Data) == 0 {
		return nil
	}
	return slices.Clone(n.Data)
}

// RecordVisit counts one discovery visit. Safe under the read lock.
func (n *Node) RecordVisit() { n.visits.Add(1) }

// Load returns the visits recorded since the last ResetUnit.
func (n *Node) Load() int { return int(n.visits.Load()) }

// ChildrenSorted returns a copy of the child keys in ascending order.
func (n *Node) ChildrenSorted() []keys.Key {
	out := make([]keys.Key, len(n.Children))
	for i, c := range n.Children {
		out[i] = c.Key
	}
	return out
}

// BestChildFor returns the edge to the child sharing a strictly longer
// prefix with k than the node itself (Algorithm 3 line 3.05), false when
// the node's key is not a proper prefix of k. Siblings differ at the
// symbol after the node's key (Node), so that child is the one whose key
// has k's symbol there, found by a binary search over that one symbol.
func (n *Node) BestChildFor(k keys.Key) (Child, bool) {
	d := len(n.Key)
	if !keys.IsProperPrefix(n.Key, k) {
		return Child{}, false
	}
	lo, hi := 0, len(n.Children) // the first edge whose symbol at d is not below k's
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); n.Children[m].Key[d] < k[d] {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(n.Children) || n.Children[lo].Key[d] != k[d] {
		return Child{}, false
	}
	return n.Children[lo], true
}

// MaxChildAtMost returns the edge to the greatest child strictly below
// bound (the SearchingHost descent rule, with the self-exclusion
// deviation documented above). The PeerJoin descent uses inclusive=true
// to allow q == bound as in Algorithm 1 line 1.12.
func (n *Node) MaxChildAtMost(bound keys.Key, inclusive bool) (Child, bool) {
	i, found := n.edge(bound)
	if found && inclusive {
		i++
	}
	if i == 0 {
		return Child{}, false
	}
	return n.Children[i-1], true
}

// NodeInfo is the paper's Host message: a node created by a data
// insertion (Algorithm 3), travelling to the peer that will run it. Its
// sender builds Children (unlinked) and Data for it, ascending, and the
// node takes them over.
type NodeInfo struct {
	Key       keys.Key
	Father    keys.Key
	HasFather bool
	Children  []Child
	Data      []string
}

// materialize makes the node a Host message creates. It is out of the
// index (pos -1) until indexNode, its links unset until linkNode or load.
func (info NodeInfo) materialize() *Node {
	return &Node{Key: info.Key, Father: info.Father, HasFather: info.HasFather,
		Children: info.Children, Data: info.Data, pos: -1}
}

// Replica is what successor replication keeps of a node: what its key
// set cannot derive. The father and children are the PGCP tree's over
// the data keys, which Recover rebuilds (rebuildLinks).
type Replica struct {
	Key      keys.Key
	Data     []string
	LoadPrev int
	LoadCur  int
}

// infoOf captures a node's replica, sharing its values (see Node).
// Concurrently recorded visits fold into the snapshot's current load;
// the original node either travels with the transfer or stays behind as
// a dormant replica, so the fold never double-counts a live node. Call
// it under the write lock.
func infoOf(n *Node) Replica {
	n.shared = true
	return Replica{Key: n.Key, Data: n.Data, LoadPrev: n.LoadPrev, LoadCur: n.Load()}
}

// captured reports whether rep is what infoOf(n) captures now.
func (n *Node) captured(rep Replica) bool {
	return rep.Key == n.Key && slices.Equal(rep.Data, n.Data) &&
		rep.LoadPrev == n.LoadPrev && rep.LoadCur == n.Load()
}

// materialize rebuilds a node from its replica, its father and children
// left to rebuildLinks. The node owns a private, sorted copy of the
// values: the replica keeps its own, and one decoded from the wire may
// list them in any order. It is out of the index (pos -1) until
// indexNode.
func (rep Replica) materialize() *Node {
	n := &Node{Key: rep.Key, Data: sortedSet(rep.Data), LoadPrev: rep.LoadPrev, pos: -1}
	n.visits.Store(int64(rep.LoadCur))
	return n
}

// sortedSet returns an ascending, duplicate-free copy of s.
func sortedSet[T cmp.Ordered](s []T) []T {
	s = slices.Clone(s)
	slices.Sort(s)
	return slices.Compact(s)
}

// strictlyAscending reports whether s is ascending and duplicate-free,
// the invariant of a node's slices.
func strictlyAscending[T cmp.Ordered](s []T) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}
