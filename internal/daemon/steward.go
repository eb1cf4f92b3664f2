// The steward side: the one commit path, its broadcast, the one repair
// of a lagging mirror, crash handling and the replication tick.

package daemon

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"dlpt/internal/catalog"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/persist"
	"dlpt/internal/transport"
)

// startSteward seeds a fresh single-peer overlay. With a data
// directory, the previous catalogue — snapshot plus journal tail — is
// folded (persist.Fold) and re-registered: the catalogue survives a
// steward restart, the membership does not (members always rejoin
// through the handshake and receive fresh mirrors).
//
// dlptlint:exclusive — runs during Start before the listener serves
// control frames; the daemon has not escaped to other goroutines.
func (d *Daemon) startSteward() error {
	var entries []core.KV
	if d.cfg.DataDir != "" {
		store, err := persist.Open(d.cfg.DataDir)
		if err != nil {
			return err
		}
		st, err := store.Load()
		if err != nil {
			store.Close()
			return err
		}
		fold := persist.NewFold(st.Snapshot, st.Journal)
		fold.Ascend(func(e catalog.Entry) bool {
			k := keys.Key(strings.Clone(e.Key)) // a fold's keys share chunks
			for _, v := range e.Values {
				entries = append(entries, core.KV{Key: k, Value: v})
			}
			return true
		})
		st.Release()
		if err := fold.Err(); err != nil {
			store.Close()
			return err
		}
		d.store = store
	}
	opts := transport.Options{
		Options:       overlay.Options{Persist: d.store, Obs: d.met, Trace: d.rec, Placement: d.placement},
		Bind:          d.cfg.Listen,
		AdvertiseHost: d.cfg.Advertise,
		Control:       d.control,
		Net:           d.cfg.Net,
	}
	c, err := transport.StartOpts(d.alpha, []int{d.cfg.Capacity}, d.cfg.Seed, opts)
	if err != nil {
		if d.store != nil {
			d.store.Close()
		}
		return err
	}
	d.cluster = c
	for id, addr := range c.Addrs() {
		d.selfID, d.selfAddr = id, addr
	}
	d.steward = true
	d.adoptEpochLocked(1, d.selfAddr)
	d.members[d.selfID] = transport.Member{ID: d.selfID, Addr: d.selfAddr, Capacity: d.cfg.Capacity}
	if len(entries) > 0 {
		if err := c.RegisterBatch(entries); err != nil {
			c.Stop()
			return fmt.Errorf("daemon: restore catalogue: %w", err)
		}
		// Rotate a fresh snapshot epoch so the restore's journal
		// appends don't double the next reload.
		if _, err := c.ReplicateLocal(); err != nil {
			c.Stop()
			return err
		}
		d.logf("dlptd steward restored %d catalogue entries from %s", len(entries), d.cfg.DataDir)
	}
	return nil
}

// errDeposed reports a commit whose broadcast met a newer epoch: the
// record was never committed under a live epoch, this daemon is a
// steward no longer (demotion and rejoin are underway, and the rejoin's
// mirror install discards the local apply), and whoever asked must go
// to the steward that fenced it.
var errDeposed = errors.New(ackDeposed)

// commitLocked is the steward's only mutation path: apply the record
// through the applyLocked every member replays, give it the next
// sequence number under the current epoch, log it and broadcast it.
// Every kind of record goes through here, so the steward's bookkeeping
// cannot drift from its members'.
func (d *Daemon) commitLocked(rec *transport.ApplyRecord) error {
	if err := d.applyLocked(rec); err != nil {
		return err
	}
	d.seq++
	d.met.MarkApplied(d.seq)
	rec.Seq, rec.Epoch = d.seq, d.epoch
	d.appendLogLocked(rec)
	if d.broadcastLocked(rec) {
		return errDeposed
	}
	return nil
}

// broadcastLocked ships one committed record to every other member,
// synchronously and in ring-id order — the steward never has two
// records in flight to the same member, so the per-member sequence
// check cannot trip on reordering. A member that cannot be reached is
// logged and left to the probe loop; one that answers that it is out
// of step is repaired before the loop moves on, so the heal is atomic
// with respect to the stream (the caller holds d.mu across both). The
// return reports that a member's stale-epoch refusal revealed this
// steward was deposed (the demotion is done when it returns true).
func (d *Daemon) broadcastLocked(rec *transport.ApplyRecord) (deposed bool) {
	payload := transport.Marshal(rec)
	var fence refusal
	for _, m := range d.memberListLocked() {
		// A joiner is not sent its own join: the mirror it installs from
		// HELLO already contains it.
		if m.ID == d.selfID || (rec.Op == transport.OpJoin && m.ID == rec.ID) {
			continue
		}
		es, err := d.ackRoundTrip(5*time.Second, m.Addr, transport.FrameApply, payload)
		if err != nil {
			d.logf("dlptd: apply seq %d to %s (%s) failed: %v", rec.Seq, m.ID, m.Addr, err)
			continue
		}
		if es == "" {
			continue
		}
		switch r := parseRefusal(es); {
		case r.kind == refusalStale && r.epoch > d.epoch:
			fence = r
			d.logf("dlptd: apply seq %d fenced by %s: %s", rec.Seq, m.ID, es)
		case r.kind == refusalGap:
			d.logf("dlptd: apply seq %d: %s stands at seq %d", rec.Seq, m.ID, r.seq)
			d.repairLocked(m, r.seq)
		default:
			d.logf("dlptd: apply seq %d refused by %s: %s", rec.Seq, m.ID, es)
		}
	}
	if fence.epoch > d.epoch {
		d.deposeLocked(fence.epoch, fence.steward)
		return true
	}
	return false
}

// repairLocked brings one member's mirror, standing at memberSeq, into
// step with d.seq — the steward's only healer, called by the
// epoch-open barrier for every member and by the broadcast loop for a
// member whose refusal says it missed a record. A gap the apply log
// covers is re-shipped record by record; a member further behind, or
// ahead (holding uncommitted records of a torn broadcast), installs
// the whole mirror, keeping its ring id and listener. A repair that
// fails is logged: the next commit meets the same refusal and tries
// again, so the work per commit is one attempt per member.
func (d *Daemon) repairLocked(m transport.Member, memberSeq uint64) {
	ship := func(typ byte, payload []byte, seq uint64) bool {
		es, err := d.ackRoundTrip(10*time.Second, m.Addr, typ, payload)
		if err != nil {
			d.logf("dlptd: repair of %s at seq %d failed: %v", m.Addr, seq, err)
		} else if es != "" {
			d.logf("dlptd: repair of %s at seq %d refused: %s", m.Addr, seq, es)
		}
		return err == nil && es == ""
	}
	switch {
	case memberSeq == d.seq:
		// In step already.
	case memberSeq < d.seq && d.logCoversLocked(memberSeq+1):
		d.met.MirrorRepair("records")
		d.logf("dlptd: replaying seq %d..%d to %s", memberSeq+1, d.seq, m.Addr)
		tail := d.logTailLocked()
		for _, rec := range tail[len(tail)-int(d.seq-memberSeq):] {
			rec.Epoch = d.epoch // re-stamped, so the member's fence admits a record of an earlier epoch
			if !ship(transport.FrameApply, transport.Marshal(&rec), rec.Seq) {
				return
			}
		}
	default:
		d.met.MirrorRepair("image")
		d.logf("dlptd: resyncing %s at %s to epoch %d seq %d", m.ID, m.Addr, d.epoch, d.seq)
		state := d.mirrorLocked()
		ship(transport.FrameResync, transport.Marshal(&state), d.seq)
	}
}

// mirrorLocked captures what a joining or resynchronizing daemon
// installs. The daemon lock serializes every overlay mutation, so the
// image is consistent with d.seq.
func (d *Daemon) mirrorLocked() transport.Mirror {
	return transport.Mirror{
		Epoch:       d.epoch,
		Seq:         d.seq,
		StewardAddr: d.selfAddr,
		Members:     d.memberListLocked(),
		Image:       d.mirrorImage(),
	}
}

// mirrorImage is a Mirror's overlay image: on a durable steward whose
// catalogue changed only through the journal, its store's newest image
// folded, off the cluster lock, with the records after it
// (persist.Store.Mirror); else, or where that fold fails, the tree's
// catalogue (transport.Cluster.MirrorImage).
func (d *Daemon) mirrorImage() []byte {
	c := d.cluster
	c.Mu.RLock() // d.mu holds off the writers; this, the readers' view
	peers, m := c.Net.RingState(), (*persist.Mirror)(nil)
	if c.Store != nil && c.Net.CatalogueJournaled() {
		m = c.Store.Mirror()
	}
	c.Mu.RUnlock()
	if m != nil {
		img, err := m.Image(nil, peers)
		if err == nil {
			return img
		}
		d.logf("dlptd steward: mirror image built from the tree: %v", err)
	}
	return c.MirrorImage()
}

// crashPeerLocked serializes one member's crash under the current
// epoch: commit the crash, then the recovery of the lost nodes from
// ring-successor replicas. Steward only; callers hold d.mu. A failed
// commit — this steward deposed mid-broadcast included, the stream is
// the new steward's then — stops the sequence.
func (d *Daemon) crashPeerLocked(id keys.Key, addr string) {
	d.logf("dlptd steward: peer %s at %s declared crashed", id, addr)
	if err := d.commitLocked(&transport.ApplyRecord{Op: transport.OpCrash, ID: id, Addr: addr}); err != nil {
		d.logf("dlptd steward: crash %s: %v", id, err)
		return
	}
	if err := d.commitLocked(&transport.ApplyRecord{Op: transport.OpRecover}); err != nil {
		d.logf("dlptd steward: recover after %s: %v", id, err)
	}
}

// ReplicateNow runs one replication tick immediately (the body of
// the steward's periodic loop): every mirror snapshots its tree
// nodes to ring successors — and the steward fsyncs a durable
// snapshot — in the same sequence slot. Steward only.
func (d *Daemon) ReplicateNow() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	if !d.steward {
		return fmt.Errorf("daemon: only the steward replicates")
	}
	return d.commitLocked(&transport.ApplyRecord{Op: transport.OpReplicate})
}

// replicateLoop is the periodic replication tick. It runs on every
// daemon and no-ops per tick unless this daemon currently holds
// stewardship — so an elected member starts replicating and a deposed
// steward stops, with no loop lifecycle churn across failovers.
func (d *Daemon) replicateLoop() {
	defer d.wg.Done()
	t := time.NewTicker(time.Duration(d.cfg.ReplicateEvery))
	defer t.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-t.C:
			if !d.IsSteward() {
				continue
			}
			if err := d.ReplicateNow(); err != nil {
				d.logf("dlptd steward: replicate: %v", err)
			}
		}
	}
}
