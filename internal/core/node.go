// Package core implements the self-contained DLPT protocol of
// RR-6557 Section 3: a Proper Greatest Common Prefix tree of service
// keys maintained directly over a bidirectional ring of peers, with
// peer insertion routed through the tree (Algorithms 1-2), data
// insertion growing the tree (Algorithm 3), discovery routing, and
// capacity-limited request processing.
//
// The package is a deterministic, message-driven simulation core:
// protocol messages are processed from a FIFO queue so that the code
// keeps the shape of the paper's per-node and per-peer handlers. Two
// placements are provided: the lexicographic mapping contributed by
// the paper (host(n) = lowest peer id >= n, wrapping) and the hashed
// Chord-style mapping of the original DLPT (the "random mapping"
// baseline of Figure 9).
//
// Documented deviations from the paper's pseudo-code (see DESIGN.md):
//
//   - Algorithm 1 line 1.04 tests "P ∉ Prefixes(p)" while the text
//     says the upward phase stops at "a node that is a prefix of P or
//     the root"; we follow the text (stop when p prefixes P).
//   - Algorithm 3 line 3.30 sends the new sibling node with father p;
//     structurally its father is the newly created GCP(p,k) node, so
//     we use that.
//   - Algorithm 3's SearchingHost descent excludes the key being
//     placed itself from the candidate children (the paper enqueues
//     the message before adding the key to C_p, which a synchronous
//     queue would otherwise turn into a self-forwarding loop).
//   - After SearchingHost bottoms out, the paper hands the node to
//     the local peer; that peer is not always the key's successor, so
//     we finish with an explicit peer-level ring walk to the owner.
//     The walk is counted as maintenance traffic.
package core

import (
	"sort"
	"sync/atomic"

	"dlpt/internal/keys"
)

// Node is the state of one logical tree node, held by the peer
// currently hosting it. Father/children are node keys: the protocol
// routes between nodes through the placement, never through global
// tree knowledge.
type Node struct {
	Key       keys.Key
	Father    keys.Key
	HasFather bool
	Children  map[keys.Key]struct{}
	Data      map[string]struct{}

	// LoadCur counts requests received by this node during the
	// current time unit; LoadPrev is the previous unit's count (the
	// l_n of Section 3.3, the input of the MLT heuristic).
	LoadCur  int
	LoadPrev int

	// visits counts discovery visits recorded by the concurrent
	// engines, whose routing holds only a read lock and therefore
	// cannot touch LoadCur. ResetUnit folds it into the load history.
	visits atomic.Int64
}

// NewNodeState returns a node with the given key and no relations.
func NewNodeState(key keys.Key) *Node {
	return &Node{
		Key:      key,
		Children: make(map[keys.Key]struct{}),
		Data:     make(map[string]struct{}),
	}
}

// HasData reports whether any value is registered at the node.
func (n *Node) HasData() bool { return len(n.Data) > 0 }

// SortedValues returns the registered values in lexicographic order,
// nil when there are none. They cross the wire and are compared across
// engines, so the set's presentation must not leak map order.
func (n *Node) SortedValues() []string {
	if len(n.Data) == 0 {
		return nil
	}
	out := make([]string, 0, len(n.Data))
	for v := range n.Data {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// RecordVisit counts one discovery visit from a concurrent engine.
// Safe to call under a read lock.
func (n *Node) RecordVisit() { n.visits.Add(1) }

// Load returns the current-unit load including concurrently recorded
// visits.
func (n *Node) Load() int { return n.LoadCur + int(n.visits.Load()) }

// ChildrenSorted returns the child keys in ascending order.
func (n *Node) ChildrenSorted() []keys.Key {
	out := make([]keys.Key, 0, len(n.Children))
	for c := range n.Children {
		out = append(out, c)
	}
	keys.SortKeys(out)
	return out
}

// BestChildFor returns the child sharing a strictly longer prefix
// with k than the node itself (Algorithm 3 line 3.05). In a valid
// PGCP tree at most one such child exists.
func (n *Node) BestChildFor(k keys.Key) (keys.Key, bool) {
	base := len(keys.GCP(n.Key, k))
	var best keys.Key
	bestLen := base
	found := false
	for c := range n.Children {
		if l := len(keys.GCP(c, k)); l > bestLen {
			best, bestLen, found = c, l, true
		}
	}
	return best, found
}

// MaxChildAtMost returns the greatest child key strictly below bound
// (the SearchingHost descent rule, with the self-exclusion deviation
// documented above). The PeerJoin descent uses inclusive=true to
// allow q == bound as in Algorithm 1 line 1.12.
func (n *Node) MaxChildAtMost(bound keys.Key, inclusive bool) (keys.Key, bool) {
	var best keys.Key
	found := false
	for c := range n.Children {
		if c > bound || (!inclusive && c == bound) {
			continue
		}
		if !found || c > best {
			best, found = c, true
		}
	}
	return best, found
}

// NodeInfo is the serialized form of a node travelling inside
// SearchingHost / Host / YourInformation messages.
type NodeInfo struct {
	Key       keys.Key
	Father    keys.Key
	HasFather bool
	Children  []keys.Key
	Data      []string
	LoadPrev  int
	LoadCur   int
}

// infoOf captures a node's state for transfer. Concurrently recorded
// visits fold into the snapshot's current load; the original node
// either travels with the transfer or stays behind as a dormant
// replica, so the fold never double-counts a live node.
func infoOf(n *Node) NodeInfo {
	info := NodeInfo{
		Key:       n.Key,
		Father:    n.Father,
		HasFather: n.HasFather,
		Children:  n.ChildrenSorted(),
		LoadPrev:  n.LoadPrev,
		LoadCur:   n.Load(),
	}
	info.Data = make([]string, 0, len(n.Data))
	for v := range n.Data {
		info.Data = append(info.Data, v)
	}
	sort.Strings(info.Data)
	return info
}

// materialize rebuilds a Node from its transferred form.
func (info NodeInfo) materialize() *Node {
	n := NewNodeState(info.Key)
	n.Father = info.Father
	n.HasFather = info.HasFather
	for _, c := range info.Children {
		n.Children[c] = struct{}{}
	}
	for _, v := range info.Data {
		n.Data[v] = struct{}{}
	}
	n.LoadPrev = info.LoadPrev
	n.LoadCur = info.LoadCur
	return n
}
