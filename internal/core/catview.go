package core

import (
	"slices"
	"strings"

	"dlpt/internal/catalog"
	"dlpt/internal/persist"
)

// CaptureSnapshot returns the catalogue a durable snapshot encodes,
// under the same critical section as the store's BeginSnapshot, so the
// journal rotation is atomic with it: nil where the store folds its
// previous image with the rotated journal (folds, persist.Fold) and
// every catalogue change since went through the journal funnel; else the
// tree's, which makes the snapshot the journal's base again.
func (net *Network) CaptureSnapshot(folds bool) persist.EntrySource {
	if folds && !net.offJournal {
		return nil
	}
	net.offJournal = false
	return net.catalogueData()
}

// Catalogue builds the tree's catalogue, leaving the journal's base
// alone.
func (net *Network) Catalogue() persist.EntrySource { return net.catalogueData() }

// CatalogueJournaled reports whether every change to the catalogue
// since the last snapshot's capture went through the journal funnel: not
// after a lossy recovery, a restore or a mirror install.
func (net *Network) CatalogueJournaled() bool { return !net.offJournal }

// entries is a sorted catalogue as a persist.EntrySource.
type entries []catalog.Entry

func (es entries) Ascend(yield func(catalog.Entry) bool) {
	for _, e := range es {
		if !yield(e) {
			return
		}
	}
}

// RingState returns the ring as a store records it: the ids with their
// capacities, in ring order, in a fresh slice.
func (net *Network) RingState() []persist.PeerState {
	ids := net.ring.IDs()
	peers := make([]persist.PeerState, 0, len(ids))
	for _, id := range ids {
		peers = append(peers, persist.PeerState{ID: string(id), Capacity: net.peers[id].Capacity})
	}
	return peers
}

// catalogueData collects the durable catalogue, in ascending key order
// with values ascending per key, in fresh slices later mutations leave
// alone: the union of the replicated data nodes and the live tree's data
// nodes, live values winning — they are at least as fresh. The union
// matters on the concurrent engines: a registration racing the
// Replicate tick has journaled into the epoch this snapshot supersedes,
// so the snapshot itself must contain it; conversely a crashed,
// unrecovered node exists only in its replica.
func (net *Network) catalogueData() entries {
	// Only a node lost to a crash contributes its replica: a live node
	// wins below, and a removed one's would resurrect it on restart.
	data := make(map[string][]string, len(net.nodeList))
	for k := range net.pendingLost {
		if e, ok := net.replicas[k]; ok && len(e.Data) > 0 {
			data[string(k)] = e.Data
		}
	}
	for _, n := range net.nodeList {
		if n.HasData() {
			data[string(n.Key)] = slices.Clone(n.Data)
		}
	}
	out := make(entries, 0, len(data))
	for k, vals := range data {
		out = append(out, catalog.Entry{Key: k, Values: vals})
	}
	slices.SortFunc(out, func(a, b catalog.Entry) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// removeValue returns vals without v; changed is false when v was
// absent. The result is a fresh slice when changed.
func removeValue(vals []string, v string) ([]string, bool) {
	j, found := slices.BinarySearch(vals, v)
	if !found {
		return vals, false
	}
	return slices.Concat(vals[:j], vals[j+1:]), true
}
