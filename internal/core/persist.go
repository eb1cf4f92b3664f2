package core

import (
	"fmt"
	"math/rand"

	"dlpt/internal/catalog"
	"dlpt/internal/keys"
	"dlpt/internal/persist"
)

// Persistence glue: the overlay's durable state is exactly the
// replica store — what successor replication has captured — plus the
// peer ring, so a cold restart recovers precisely what the paper's
// replication model guarantees: everything declared before the last
// Replicate (journal replay then carries registrations past it).

// RestoreFromStore is RestoreFrom over a store's loaded state — the
// one-call restore path the engines share. The snapshot mapping is
// released once the restore walk has materialized the overlay.
func (net *Network) RestoreFromStore(store *persist.Store, r *rand.Rand) error {
	st, err := store.Load()
	if err != nil {
		return err
	}
	defer st.Release()
	return net.RestoreFrom(st, r)
}

// AttachJournal installs the persistence journal hook: every
// successful catalogue mutation appends to the store. Install it only
// after any restore, so journal replay does not re-append; a nil
// store is a no-op.
func (net *Network) AttachJournal(store *persist.Store) {
	if store == nil {
		return
	}
	net.Journal = func(remove bool, k keys.Key, v string) {
		_ = store.Append(remove, string(k), v)
	}
}

// RestoreFrom rebuilds an empty overlay from persisted state: the ring —
// the newest one Load found, or the snapshot's — is recreated peer by
// peer with its persisted identifiers and capacities, the image's
// catalogue is built in InsertBatch's sorted pass (load, with no draws),
// each data node's replica is placed on its host's successor, and the
// journal replays the mutations recorded after the snapshot. One image
// and journal always restore one overlay, node-index order included, and
// it passes the full Validate set.
func (net *Network) RestoreFrom(st *persist.LoadedState, r *rand.Rand) error {
	if net.NumPeers() != 0 || net.NumNodes() != 0 {
		return fmt.Errorf("core: restore into a non-empty overlay")
	}
	if st == nil || st.Snapshot == nil {
		return fmt.Errorf("core: nothing to restore (no valid snapshot on disk)")
	}
	peers := st.Peers
	if peers == nil { // an image installed from the wire has no journal
		peers = st.Snapshot.Peers
	}
	for _, p := range peers {
		if err := net.JoinPeer(keys.Key(p.ID), p.Capacity, r); err != nil {
			return fmt.Errorf("core: restore peer %q: %w", p.ID, err)
		}
	}
	// Stream the snapshot's catalogue: for a mapped version-2 snapshot
	// each subtree materializes as the walk first touches it.
	var entries []KV
	err := st.Snapshot.Ascend(func(e catalog.Entry) bool {
		for _, v := range e.Values {
			entries = append(entries, KV{Key: keys.Key(e.Key), Value: v})
		}
		return true
	})
	if err != nil {
		return err
	}
	if len(entries) > 0 && net.NumPeers() == 0 {
		return fmt.Errorf("core: restore replica %q: no peers", entries[0].Key)
	}
	net.load(entries, nil)
	for _, n := range net.nodeList {
		if n.HasData() {
			net.placeReplica(n, infoOf(n), net.successorOf(n.host))
			net.Replication.RestoredNodes++
		}
	}
	for _, rec := range st.Journal {
		if rec.Remove {
			net.RemoveData(keys.Key(rec.Key), rec.Value)
			continue
		}
		if err := net.InsertData(keys.Key(rec.Key), rec.Value, r); err != nil {
			return fmt.Errorf("core: journal replay of %q: %w", rec.Key, err)
		}
	}
	if err := net.Validate(); err != nil {
		return fmt.Errorf("core: restored overlay invalid: %w", err)
	}
	net.offJournal = true // no image of this network's to fold yet
	return nil
}
