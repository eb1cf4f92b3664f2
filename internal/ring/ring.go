// Package ring maintains the bidirectional ring of peer identifiers
// of the DLPT (Section 3 of RR-6557). Peers are ordered
// lexicographically; each peer knows its immediate predecessor and
// successor, and the mapping rule assigns a tree node n to the peer
// with the lowest identifier >= n, wrapping to the minimum peer when
// n exceeds the maximum peer identifier.
package ring

import (
	"fmt"
	"sort"

	"dlpt/internal/keys"
)

// Ring is an ordered set of peer identifiers with circular
// successor/predecessor structure. The zero value is an empty ring.
// Ring is a bookkeeping structure of the simulator and of the load
// balancer — the protocol itself only relies on the per-peer
// pred/succ links that internal/core maintains; invariants between
// the two are cross-checked in tests.
type Ring struct {
	ids     []keys.Key // sorted ascending, unique
	changes uint64     // see Changes
}

// New returns an empty ring.
func New() *Ring { return &Ring{} }

// Len returns the number of peers.
func (r *Ring) Len() int { return len(r.ids) }

// Changes counts the changes to the ring since it was made: each
// member inserted, removed or renamed (Replace).
func (r *Ring) Changes() uint64 { return r.changes }

// At returns the i-th lowest peer identifier, 0 <= i < Len.
func (r *Ring) At(i int) keys.Key { return r.ids[i] }

// IDs returns a copy of the peer identifiers in ascending order.
func (r *Ring) IDs() []keys.Key {
	out := make([]keys.Key, len(r.ids))
	copy(out, r.ids)
	return out
}

// Contains reports whether id is a member.
func (r *Ring) Contains(id keys.Key) bool {
	i := r.search(id)
	return i < len(r.ids) && r.ids[i] == id
}

// search returns the insertion index of id.
func (r *Ring) search(id keys.Key) int {
	return sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
}

// Insert adds id to the ring. It reports whether the id was new.
func (r *Ring) Insert(id keys.Key) bool {
	i := r.search(id)
	if i < len(r.ids) && r.ids[i] == id {
		return false
	}
	r.ids = append(r.ids, "")
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
	r.changes++
	return true
}

// Remove deletes id from the ring. It reports whether it was present.
func (r *Ring) Remove(id keys.Key) bool {
	i := r.search(id)
	if i >= len(r.ids) || r.ids[i] != id {
		return false
	}
	copy(r.ids[i:], r.ids[i+1:])
	r.ids = r.ids[:len(r.ids)-1]
	r.changes++
	return true
}

// Min returns the lowest peer identifier (P_min).
func (r *Ring) Min() (keys.Key, bool) {
	if len(r.ids) == 0 {
		return keys.Epsilon, false
	}
	return r.ids[0], true
}

// Max returns the highest peer identifier (P_max).
func (r *Ring) Max() (keys.Key, bool) {
	if len(r.ids) == 0 {
		return keys.Epsilon, false
	}
	return r.ids[len(r.ids)-1], true
}

// HostOf returns the peer responsible for node identifier n: the peer
// with the lowest identifier >= n, or the minimum peer when n exceeds
// every peer (Section 3's mapping rule).
func (r *Ring) HostOf(n keys.Key) (keys.Key, bool) {
	if len(r.ids) == 0 {
		return keys.Epsilon, false
	}
	i := r.search(n)
	if i == len(r.ids) {
		return r.ids[0], true
	}
	return r.ids[i], true
}

// Successor returns the peer immediately after id on the ring
// (the lowest identifier strictly greater, wrapping to the minimum).
// id need not be a member.
func (r *Ring) Successor(id keys.Key) (keys.Key, bool) {
	if len(r.ids) == 0 {
		return keys.Epsilon, false
	}
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] > id })
	if i == len(r.ids) {
		return r.ids[0], true
	}
	return r.ids[i], true
}

// Predecessor returns the peer immediately before id on the ring
// (the highest identifier strictly lower, wrapping to the maximum).
// id need not be a member.
func (r *Ring) Predecessor(id keys.Key) (keys.Key, bool) {
	if len(r.ids) == 0 {
		return keys.Epsilon, false
	}
	i := r.search(id)
	if i == 0 {
		return r.ids[len(r.ids)-1], true
	}
	return r.ids[i-1], true
}

// Replace atomically substitutes oldID with newID, preserving ring
// membership. This is the primitive used by the MLT load balancer
// when it moves a peer along the ring. It fails when oldID is absent,
// when newID is already a member, or when the move would reorder the
// ring (newID must keep the same neighbours).
func (r *Ring) Replace(oldID, newID keys.Key) error {
	if oldID == newID {
		return nil
	}
	i := r.search(oldID)
	if i >= len(r.ids) || r.ids[i] != oldID {
		return fmt.Errorf("ring: replace of absent peer %q", oldID)
	}
	if r.Contains(newID) {
		return fmt.Errorf("ring: replacement id %q already present", newID)
	}
	if len(r.ids) > 1 {
		// The new id must stay strictly between the current
		// neighbours so that the circular order is unchanged.
		pred := r.ids[(i-1+len(r.ids))%len(r.ids)]
		succ := r.ids[(i+1)%len(r.ids)]
		if pred != oldID && succ != oldID { // more than 2 peers
			if !keys.Between(newID, pred, succ) {
				return fmt.Errorf("ring: replacement %q leaves interval (%q,%q)",
					newID, pred, succ)
			}
		}
	}
	r.ids[i] = newID
	r.changes++
	// With 1 or 2 peers any position is order-equivalent, but keep
	// the slice sorted.
	sort.Slice(r.ids, func(a, b int) bool { return r.ids[a] < r.ids[b] })
	return nil
}

// Validate checks internal ordering and uniqueness.
func (r *Ring) Validate() error {
	for i := 1; i < len(r.ids); i++ {
		if r.ids[i-1] >= r.ids[i] {
			return fmt.Errorf("ring: ids out of order at %d: %q >= %q",
				i, r.ids[i-1], r.ids[i])
		}
	}
	return nil
}
