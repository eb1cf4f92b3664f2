package core

import (
	"sync/atomic"

	"dlpt/internal/keys"
)

// Peer is one physical node of the P2P network. It knows its ring
// neighbours, hosts a set ν_P of tree nodes, and can process at most
// Capacity discovery visits per time unit (requests received beyond
// that are ignored, Section 4).
type Peer struct {
	ID       keys.Key
	Pred     keys.Key
	Succ     keys.Key
	Capacity int

	// Nodes is ν_P, the set of tree nodes this peer runs.
	Nodes map[keys.Key]*Node

	// Replicas is the replica set this peer holds on behalf of its
	// ring predecessor: the successor-placed snapshots of the nodes
	// the predecessor runs (see replication.go). A crash of this peer
	// loses the set; Replicate rebuilds it.
	Replicas map[keys.Key]NodeInfo

	// Processed counts discovery visits processed during the current
	// time unit; reset by ResetUnit.
	Processed int

	// procConc counts discovery visits processed by the concurrent
	// engines, whose gated routing runs under a read lock and
	// therefore cannot touch Processed. ResetUnit clears it with the
	// rest of the unit accounting.
	procConc atomic.Int64
}

// NewPeer returns a peer with the given identifier and capacity,
// initially linked to itself.
func NewPeer(id keys.Key, capacity int) *Peer {
	return &Peer{
		ID:       id,
		Pred:     id,
		Succ:     id,
		Capacity: capacity,
		Nodes:    make(map[keys.Key]*Node),
		Replicas: make(map[keys.Key]NodeInfo),
	}
}

// NumNodes returns |ν_P|.
func (p *Peer) NumNodes() int { return len(p.Nodes) }

// NumReplicas returns the size of the replica set this peer holds.
func (p *Peer) NumReplicas() int { return len(p.Replicas) }

// NodeKeys returns the hosted node keys in ascending order.
func (p *Peer) NodeKeys() []keys.Key {
	out := make([]keys.Key, 0, len(p.Nodes))
	for k := range p.Nodes {
		out = append(out, k)
	}
	keys.SortKeys(out)
	return out
}

// LoadPrev returns L_P of the previous time unit: the sum of the
// previous-unit loads of the nodes the peer currently runs.
func (p *Peer) LoadPrev() int {
	sum := 0
	for _, n := range p.Nodes {
		sum += n.LoadPrev
	}
	return sum
}

// LoadCur returns the running request count of the current unit.
func (p *Peer) LoadCur() int {
	sum := 0
	for _, n := range p.Nodes {
		sum += n.LoadCur
	}
	return sum
}

// Saturated reports whether the peer has exhausted its capacity for
// the current time unit, counting both the sequential and the
// concurrently recorded visits.
func (p *Peer) Saturated() bool {
	return p.Processed+int(p.procConc.Load()) >= p.Capacity
}

// TryProcess atomically consumes one unit of discovery capacity,
// reporting false — and consuming nothing — when the peer is
// saturated. Safe to call under a read lock: the slot is reserved
// with the increment itself, so concurrent callers at the capacity
// boundary cannot all slip through a check-then-act window (a
// transiently inflated counter only errs towards dropping, and the
// rollback restores it).
func (p *Peer) TryProcess() bool {
	if int(p.procConc.Add(1))+p.Processed > p.Capacity {
		p.procConc.Add(-1)
		return false
	}
	return true
}

// absorb installs a transferred node on the peer.
func (p *Peer) absorb(info NodeInfo) *Node {
	n := info.materialize()
	p.adopt(n)
	return n
}

// adopt makes p the host of n. With release, it is the only writer of
// Nodes: the node index reaches a node's host through n.host.
func (p *Peer) adopt(n *Node) {
	p.Nodes[n.Key] = n
	n.host = p
}

// release removes and returns the node with key k.
func (p *Peer) release(k keys.Key) (*Node, bool) {
	n, ok := p.Nodes[k]
	if ok {
		delete(p.Nodes, k)
	}
	return n, ok
}
