// Steward failover: epoch-fenced election, the epoch-open barrier
// that resynchronizes member mirrors behind the winner, and the
// deposed steward's demotion-and-rejoin path. See the package comment
// for the protocol overview.
//
// Lock discipline: the vote-collection loop round-trips without d.mu
// (snapshotting under the lock, re-verifying before commit), so the
// daemon keeps serving while campaigning. winElection and the barrier
// hold d.mu throughout — member-side barrier handlers never
// round-trip back, so the hold cannot deadlock — which makes the
// epoch cut-over atomic against concurrent joins and originations:
// they queue behind the lock and land under the new epoch.

package daemon

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/peering"
	"dlpt/internal/transport"
)

// deposeLocked demotes this steward after evidence of a higher epoch
// (a member's fencing refusal or a probed STATUS reply). The daemon
// immediately stops serializing — stewardship, epoch and steward
// address flip under the caller's lock — and a background goroutine
// rejoins the overlay as a plain member under a fresh ring id, since
// the new steward has already crashed this daemon's old identity out
// of every mirror.
func (d *Daemon) deposeLocked(epoch uint64, stewardAddr string) {
	if !d.steward || d.closed {
		return
	}
	d.logf("dlptd: deposed by epoch %d steward at %s; rejoining as member", epoch, stewardAddr)
	d.met.ElectionEvent("deposed")
	d.steward = false
	d.adoptEpochLocked(epoch, stewardAddr)
	d.wg.Add(1)
	go d.rejoinAsMember()
}

// rejoinAsMember runs a deposed steward's re-entry: a fresh JOIN
// through the new steward (falling back to any member for a
// redirect), then the mirror install under the assigned id. The
// daemon lock is held across join and install for the same reason
// startMember holds it: racing APPLY broadcasts queue behind the
// installation and then extend the sequence in order.
func (d *Daemon) rejoinAsMember() {
	defer d.wg.Done()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.steward {
		return
	}
	targets := make([]string, 0, len(d.members))
	if d.stewardAddr != "" && d.stewardAddr != d.selfAddr {
		targets = append(targets, d.stewardAddr)
	}
	for id, m := range d.members {
		if id != d.selfID && m.Addr != d.selfAddr && !slices.Contains(targets, m.Addr) {
			targets = append(targets, m.Addr)
		}
	}
	hello, err := d.joinVia(targets)
	if err != nil {
		d.logf("dlptd: deposed steward rejoin failed: %v", err)
		return
	}
	if err := d.installMirrorLocked(&hello.Mirror, hello.AssignedID, nil); err != nil {
		d.logf("dlptd: deposed steward rejoin install: %v", err)
		return
	}
	// Suspicions belonged to the deposed identity's view of the overlay.
	d.suspected = make(map[string]bool)
	d.logf("dlptd: rejoined overlay as member %s (epoch %d, seq %d)", d.selfID, d.epoch, d.seq)
}

// maybeElectLocked starts this member's candidate loop when the
// steward link is down and this member is the overlay's deterministic
// candidate: the lowest ring id among members whose links are not
// suspected. Candidacy re-checks inside the loop, so a wrong guess
// (the candidate itself died next) self-corrects on the next link
// loss.
func (d *Daemon) maybeElectLocked() {
	if d.closed || d.steward || d.electing {
		return
	}
	if d.stewardAddr == "" || !d.suspected[d.stewardAddr] {
		return
	}
	if candidate := d.candidateLocked(); candidate != d.selfID {
		return
	}
	d.electing = true
	d.stewardDownAt = time.Now()
	d.met.ElectionEvent("started")
	d.logf("dlptd: steward at %s lost; standing for election", d.stewardAddr)
	d.wg.Add(1)
	go d.runElection()
}

// candidateLocked returns the deterministic election candidate: the
// lowest ring id among members whose addresses are not suspected
// (self is never suspected — a daemon does not probe itself).
func (d *Daemon) candidateLocked() keys.Key {
	var best keys.Key
	found := false
	for id, m := range d.members {
		if id != d.selfID && d.suspected[m.Addr] {
			continue
		}
		if !found || id < best {
			best, found = id, true
		}
	}
	return best
}

// runElection is the candidate loop: propose a bumped epoch, collect
// promises from the live members, and either win with a majority of
// the KNOWN membership (the dead steward counts toward the
// denominator — split quorums under a partition cannot both clear
// half of a table they share) or back off and retry while the
// conditions persist. Round-trips run without the daemon lock.
func (d *Daemon) runElection() {
	defer d.wg.Done()
	et := time.Duration(d.cfg.ElectionTimeout)
	bo := peering.NewBackoff(et/4, et, 0.2, d.cfg.Seed+1)
	var proposed uint64
	for {
		d.mu.Lock()
		if d.closed || d.steward || !d.suspected[d.stewardAddr] || d.candidateLocked() != d.selfID {
			d.electing = false
			d.mu.Unlock()
			return
		}
		// Re-propose the same epoch while it is still ours to claim
		// (voters that were slow to suspect the steward grant it on a
		// later round); bump only when the floor moved or a competitor
		// holds the promise.
		if proposed <= d.epoch || proposed < d.promised ||
			(proposed == d.promised && d.promisedTo != d.selfAddr) {
			proposed = max(d.epoch, d.promised) + 1
		}
		d.promised = proposed // self-promise: never grant a competitor this epoch
		d.promisedTo = d.selfAddr
		total := len(d.members)
		selfID, selfAddr, selfSeq := d.selfID, d.selfAddr, d.seq
		voters := make([]transport.Member, 0, len(d.members))
		for id, m := range d.members {
			if id != d.selfID && !d.suspected[m.Addr] {
				voters = append(voters, m)
			}
		}
		d.mu.Unlock()

		votes := 1 // self
		maxSeq, maxSeqAddr := selfSeq, ""
		var fencedBy uint64
		req := transport.Marshal(&transport.ElectRequest{
			Epoch: proposed, ID: selfID, Addr: selfAddr, Seq: selfSeq,
		})
		for _, v := range voters {
			rp, err := d.roundTrip(et, v.Addr, transport.FrameElect, req, transport.FrameElectResp)
			if err != nil {
				d.logf("dlptd: election epoch %d: vote from %s failed: %v", proposed, v.Addr, err)
				d.cluster.DropEndpointAddr(v.Addr)
				continue
			}
			var rep transport.ElectReply
			if transport.Unmarshal(rp, &rep) != nil {
				continue
			}
			if rep.Granted {
				votes++
				if rep.Seq > maxSeq {
					maxSeq, maxSeqAddr = rep.Seq, v.Addr
				}
				continue
			}
			if rep.Epoch > fencedBy {
				fencedBy = rep.Epoch
			}
		}
		quorum := total/2 + 1
		if votes >= quorum {
			d.winElection(proposed, maxSeq, maxSeqAddr)
			return
		}
		d.logf("dlptd: election epoch %d lost: %d/%d votes (quorum %d)", proposed, votes, total, quorum)
		d.met.ElectionEvent("lost")
		d.mu.Lock()
		if fencedBy > d.promised {
			d.promised = fencedBy
			d.promisedTo = "" // floor raised by a competitor's promise
		}
		d.mu.Unlock()
		select {
		case <-d.ctx.Done():
			d.mu.Lock()
			d.electing = false
			d.mu.Unlock()
			return
		case <-time.After(bo.Next()):
		}
	}
}

// winElection commits a quorum: catch up to the most advanced voter's
// stream position, assume stewardship under the won epoch, run the
// epoch-open barrier, and serialize the old steward's crash as the
// new epoch's first overlay mutation.
func (d *Daemon) winElection(epoch, maxSeq uint64, maxSeqAddr string) {
	if maxSeqAddr != "" && maxSeq > d.Seq() {
		d.catchUp(maxSeqAddr, maxSeq)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.electing = false
	if d.closed || d.steward || !d.suspected[d.stewardAddr] {
		d.met.ElectionEvent("lost")
		return
	}
	oldAddr := d.stewardAddr
	oldID, oldFound := d.memberAtLocked(oldAddr)
	d.steward = true
	d.adoptEpochLocked(epoch, d.selfAddr)
	d.met.ElectionEvent("won")
	d.logf("dlptd: won election: steward of epoch %d at seq %d", d.epoch, d.seq)
	d.openEpochLocked()
	if oldFound {
		d.crashPeerLocked(oldID, oldAddr)
	}
	if !d.stewardDownAt.IsZero() {
		d.met.ObserveFailover(time.Since(d.stewardDownAt))
	}
}

// catchUp pulls the sequenced records this candidate missed from the
// most advanced voter before assuming stewardship, so the new epoch
// starts from the longest committed stream any survivor holds.
func (d *Daemon) catchUp(addr string, target uint64) {
	d.mu.Lock()
	from := d.seq + 1
	d.mu.Unlock()
	rp, err := d.roundTrip(time.Duration(d.cfg.ElectionTimeout), addr, transport.FrameFetch,
		transport.Marshal(&transport.FetchRequest{From: from}), transport.FrameFetchResp)
	var rep transport.FetchReply
	if err == nil {
		err = transport.Unmarshal(rp, &rep)
	}
	if err == nil && rep.Err != "" {
		err = errors.New(rep.Err)
	}
	if err != nil {
		d.logf("dlptd: catch-up fetch from %s: %v", addr, err)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, rec := range rep.Records {
		if rec.Seq <= d.seq {
			continue // reached us while the fetch was in flight
		}
		if err := d.advanceLocked(rec); err != nil {
			d.logf("dlptd: catch-up seq %d: %v", rec.Seq, err)
			return
		}
	}
	d.logf("dlptd: caught up to seq %d (target %d) from %s", d.seq, target, addr)
}

// openEpochLocked runs the epoch-open barrier: every unsuspected
// member adopts the new epoch and reports its last applied sequence,
// and repairLocked brings it into step. Failures are logged and left
// to the next commit's repair or the probe loop's crash path — the
// barrier must not wedge stewardship on an unreachable member.
func (d *Daemon) openEpochLocked() {
	open := transport.Marshal(&transport.EpochOpen{
		Epoch: d.epoch, StewardID: d.selfID, StewardAddr: d.selfAddr, Seq: d.seq,
	})
	for _, m := range d.memberListLocked() {
		if m.ID == d.selfID || d.suspected[m.Addr] {
			continue
		}
		rp, err := d.roundTrip(5*time.Second, m.Addr, transport.FrameEpochOpen, open, transport.FrameEpochOpenResp)
		var rep transport.EpochOpenReply
		if err == nil {
			err = transport.Unmarshal(rp, &rep)
		}
		if err == nil && rep.Err != "" {
			err = errors.New(rep.Err)
		}
		if err != nil {
			d.logf("dlptd: epoch-open to %s: %v", m.Addr, err)
			continue
		}
		d.repairLocked(m, rep.Seq)
	}
}

// handleElect answers one election proposal: a promise is granted iff
// the proposal clears this voter's fencing floor, this voter is not
// itself the steward, and this voter also believes the steward is
// down — otherwise the refusal carries the floor and a steward hint
// so the candidate can converge instead of looping.
func (d *Daemon) handleElect(payload []byte) (byte, []byte) {
	var er transport.ElectRequest
	if err := transport.Unmarshal(payload, &er); err != nil {
		return ack("daemon: malformed elect: " + err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := &transport.ElectReply{Epoch: max(d.epoch, d.promised), Seq: d.seq}
	// A candidate may re-propose the epoch this voter already granted
	// it (its earlier round failed elsewhere); the re-grant is
	// idempotent.
	regrant := er.Epoch > d.epoch && er.Epoch == d.promised && d.promisedTo == er.Addr
	switch {
	case d.closed:
		rep.Err = ackShuttingDown
	case d.steward:
		rep.Err = "daemon: i am steward"
		rep.StewardAddr = d.selfAddr
	case er.Epoch <= max(d.epoch, d.promised) && !regrant:
		rep.Err = fmt.Sprintf("daemon: epoch %d not past promised %d", er.Epoch, max(d.epoch, d.promised))
	case !d.suspected[d.stewardAddr]:
		rep.Err = "daemon: steward link is live"
		rep.StewardAddr = d.stewardAddr
	default:
		d.promised = er.Epoch
		d.promisedTo = er.Addr
		rep.Granted = true
		rep.Epoch = er.Epoch
		d.logf("dlptd: promised epoch %d to %s at %s", er.Epoch, er.ID, er.Addr)
	}
	return transport.FrameElectResp, transport.Marshal(rep)
}

// handleEpochOpen runs the member side of the barrier: adopt the won
// epoch and the new steward, report the last applied sequence. Never
// round-trips back — the steward holds its lock across the barrier.
func (d *Daemon) handleEpochOpen(payload []byte) (byte, []byte) {
	var eo transport.EpochOpen
	if err := transport.Unmarshal(payload, &eo); err != nil {
		return ack("daemon: malformed epoch-open: " + err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := &transport.EpochOpenReply{Seq: d.seq}
	switch {
	case d.closed:
		rep.Err = ackShuttingDown
	case eo.Epoch < d.epoch:
		rep.Err = staleEpochAck(d.epoch, d.stewardAddr)
	case d.steward:
		// Defensive: a steward that hears a barrier for a higher epoch
		// was deposed and cannot serve the barrier mid-demotion.
		d.deposeLocked(eo.Epoch, eo.StewardAddr)
		rep.Err = "daemon: deposed, rejoining"
	default:
		d.adoptEpochLocked(eo.Epoch, eo.StewardAddr)
		delete(d.suspected, eo.StewardAddr)
		d.logf("dlptd: epoch %d opened by steward %s at %s (local seq %d, steward seq %d)",
			eo.Epoch, eo.StewardID, eo.StewardAddr, d.seq, eo.Seq)
	}
	return transport.FrameEpochOpenResp, transport.Marshal(rep)
}

// handleResync installs the new steward's mirror, keeping this
// daemon's ring id and listener: the re-bootstrap path for members
// whose gap outran the steward's apply log.
func (d *Daemon) handleResync(payload []byte) (byte, []byte) {
	var rs transport.Mirror
	if err := transport.Unmarshal(payload, &rs); err != nil {
		return ack("daemon: malformed resync: " + err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ack(ackShuttingDown)
	}
	if rs.Epoch < d.epoch {
		return ack(staleEpochAck(d.epoch, d.stewardAddr))
	}
	selfID := d.selfID
	found := false
	for _, m := range rs.Members {
		if m.ID == selfID || m.Addr == d.selfAddr {
			selfID, found = m.ID, true
			break
		}
	}
	if !found {
		return ack("daemon: resync state lacks this member")
	}
	if err := d.installMirrorLocked(&rs, selfID, nil); err != nil {
		return ack("daemon: resync install: " + err.Error())
	}
	d.logf("dlptd: mirror re-bootstrapped by resync at epoch %d seq %d", d.epoch, d.seq)
	return ack("")
}

// handleFetch serves a candidate's catch-up: the contiguous apply-log
// tail from the requested sequence onward.
//
//dlptlint:ignore epochfence read-only handler: logCoversLocked and the record copies only read; stale fetchers get stale tails, which the election term check rejects
func (d *Daemon) handleFetch(payload []byte) (byte, []byte) {
	var fr transport.FetchRequest
	if err := transport.Unmarshal(payload, &fr); err != nil {
		return ack("daemon: malformed fetch: " + err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rep := &transport.FetchReply{}
	switch {
	case fr.From > d.seq:
		// Nothing to serve: the requester is already at or past us.
	case d.logCoversLocked(fr.From):
		for _, rec := range d.logTailLocked() {
			if rec.Seq >= fr.From {
				rep.Records = append(rep.Records, &rec)
			}
		}
	default:
		rep.Err = fmt.Sprintf("daemon: apply log starts past seq %d", fr.From)
	}
	return transport.FrameFetchResp, transport.Marshal(rep)
}
