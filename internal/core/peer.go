package core

import (
	"sync/atomic"

	"dlpt/internal/keys"
)

// Peer is one physical node of the P2P network. It knows its ring
// neighbours, hosts a set ν_P of tree nodes, and can process at most
// Capacity discovery visits per time unit (requests received beyond
// that are ignored, Section 4).
//
// ν_P is a slice in no particular order: each node records its slot in
// it, so adopt appends and release swap-removes in O(1). Only they write
// it; Nodes hands it out read-only.
type Peer struct {
	ID       keys.Key
	Pred     keys.Key
	Succ     keys.Key
	Capacity int

	nodes []*Node // ν_P; nodes[n.slot] == n

	// replicas counts the replica store's entries this peer holds: the
	// snapshots of its ring predecessor's nodes (see replication.go).
	replicas int

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
	}
}

// NumNodes returns |ν_P|.
func (p *Peer) NumNodes() int { return len(p.nodes) }

// Nodes returns ν_P, in no particular order. The slice is the peer's
// own: read it under the lock that guards the network, and never write
// it.
func (p *Peer) Nodes() []*Node { return p.nodes }

// NumReplicas returns the number of replicas this peer holds.
func (p *Peer) NumReplicas() int { return p.replicas }

// LoadPrev returns L_P of the previous time unit: the sum of the
// previous-unit loads of the nodes the peer currently runs.
func (p *Peer) LoadPrev() int {
	sum := 0
	for _, n := range p.nodes {
		sum += n.LoadPrev
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

// adopt makes p the host of n. With release, it is the only writer of
// ν_P, and it alone sets n.host, through which the index reaches a host.
func (p *Peer) adopt(n *Node) {
	n.host, n.slot = p, int32(len(p.nodes))
	p.nodes = append(p.nodes, n)
}

// release removes n, which p hosts, from ν_P: the last node takes its
// slot, so a caller releasing while it ranges ν_P ranges backwards.
func (p *Peer) release(n *Node) {
	last := p.nodes[len(p.nodes)-1]
	p.nodes[n.slot], last.slot = last, n.slot
	p.nodes[len(p.nodes)-1] = nil
	p.nodes = p.nodes[:len(p.nodes)-1]
	n.slot = -1
}

// holds reports whether n sits at its slot in ν_P.
func (p *Peer) holds(n *Node) bool {
	return n.slot >= 0 && int(n.slot) < len(p.nodes) && p.nodes[n.slot] == n
}

// cede moves to peer to every node of ν_P that sel picks, returning how
// many moved.
func (p *Peer) cede(to *Peer, sel func(*Node) bool) (moved int) {
	for i := len(p.nodes) - 1; i >= 0; i-- {
		if n := p.nodes[i]; sel(n) {
			p.release(n)
			to.adopt(n)
			moved++
		}
	}
	return moved
}
