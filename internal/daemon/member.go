// The mirror side: the join handshake and mirror install, applyLocked
// (the steward's commit runs it too), the one way a mirror advances by
// a record, and the origination path that forwards a client's write.

package daemon

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/peering"
	"dlpt/internal/transport"
)

// incompatiblePrefix marks join rejections that no amount of retrying
// will fix (version, alphabet, placement or address conflicts); the
// join loop fails fast on them instead of backing off.
const incompatiblePrefix = "incompatible: "

// applyLogSize bounds the in-memory tail of applied records every
// daemon keeps: the source a steward's repair replays from, and what a
// candidate's catch-up is served. A member further behind than this
// installs the whole mirror.
const applyLogSize = 512

// startMember binds the listener first (so JOIN can advertise it),
// starts an empty cluster, joins through the bootstrap list and
// installs the steward's mirror, adopting that listener. The daemon
// lock is held across join and install: APPLY broadcasts that race the
// installation queue behind it and then extend the sequence in order.
func (d *Daemon) startMember() error {
	ln, err := d.cfg.Net.Listen(transport.NormalizeBind(d.cfg.Listen))
	if err != nil {
		return err
	}
	d.selfAddr = transport.AdvertiseAddr(ln.Addr().String(), d.cfg.Advertise)
	c, err := transport.StartOpts(d.alpha, nil, d.cfg.Seed, transport.Options{
		Options:       overlay.Options{Obs: d.met, Trace: d.rec},
		AllowEmpty:    true,
		AdvertiseHost: d.cfg.Advertise,
		Control:       d.control,
		Net:           d.cfg.Net,
	})
	if err != nil {
		ln.Close()
		return err
	}
	d.cluster = c
	d.mu.Lock()
	defer d.mu.Unlock()
	hello, err := d.joinVia(d.cfg.Bootstrap)
	if err != nil {
		ln.Close()
		c.Stop()
		return err
	}
	if err := d.installMirrorLocked(&hello.Mirror, hello.AssignedID, ln); err != nil {
		ln.Close()
		c.Stop()
		return fmt.Errorf("daemon: install mirror: %w", err)
	}
	return nil
}

// installMirrorLocked replaces this daemon's overlay identity and
// mirror with the state a steward sent: the one install behind a first
// join (ln is the listener bound for it), a deposed steward's rejoin
// and a RESYNC (ln nil: the bound listener is kept and re-keyed to
// self). Nothing changes when the cluster refuses the image.
func (d *Daemon) installMirrorLocked(m *transport.Mirror, self keys.Key, ln net.Listener) error {
	members := make(map[keys.Key]transport.Member, len(m.Members))
	addrs := make(map[keys.Key]string, len(m.Members))
	for _, mb := range m.Members {
		members[mb.ID] = mb
		addrs[mb.ID] = mb.Addr
	}
	if err := d.cluster.InstallMirror(m.Image, addrs, self, ln); err != nil {
		return err
	}
	d.members = members
	d.selfID = self
	d.seq = m.Seq
	d.met.MarkApplied(d.seq)
	d.adoptEpochLocked(m.Epoch, m.StewardAddr)
	d.applyLog = nil
	d.syncLinksLocked()
	return nil
}

// joinVia runs the bootstrap handshake loop: every base address is
// tried in order, and transient failures (peer not up yet, connection
// cut mid-join) back off exponentially with jitter until JoinTimeout.
// A member's rejection naming the steward makes that address the
// preferred target for the next round — but only as an evictable
// hint: if the hinted steward cannot be reached (it died between the
// redirect and our dial, e.g. mid-failover), the hint is dropped and
// the live base members are asked again for a fresh one, instead of
// re-dialing the dead address until the timeout. Incompatibility
// rejections fail immediately.
//
// dlptlint:held mu — rejoinAsMember calls this with the lock held;
// the startup path (startMember) runs before the daemon escapes.
func (d *Daemon) joinVia(base []string) (*transport.HelloInfo, error) {
	payload := transport.Marshal(&transport.JoinRequest{
		Version:   transport.HandshakeVersion,
		Alphabet:  d.alphaDigits,
		Placement: d.placementName,
		Addr:      d.selfAddr,
		Capacity:  d.cfg.Capacity,
	})
	bo := peering.NewBackoff(100*time.Millisecond, 2*time.Second, 0.2, d.cfg.Seed)
	deadline := time.Now().Add(time.Duration(d.cfg.JoinTimeout))
	var hint string // learned steward address; evicted on dial failure
	var lastErr error
	for {
		targets := base
		if hint != "" && !slices.Contains(base, hint) {
			targets = append([]string{hint}, base...)
		}
		for _, addr := range targets {
			rp, err := d.roundTrip(3*time.Second, addr, transport.FrameJoin, payload, transport.FrameHello)
			if errors.Is(err, errBadReply) {
				// Not the handshake's own refusal (a HELLO carrying Err):
				// the far side could not answer JOIN at all — no daemon
				// behind the listener, or an admission too large for one
				// frame. Retrying cannot change that.
				return nil, fmt.Errorf("daemon: join %s: %w", addr, err)
			}
			if err != nil {
				// The pooled connection may hold a dead dial; evict so
				// the retry dials fresh.
				d.cluster.DropEndpointAddr(addr)
				if addr == hint {
					hint = "" // stale redirect: fall back to the members
				}
				lastErr = fmt.Errorf("join %s: %w", addr, err)
				continue
			}
			hello := new(transport.HelloInfo)
			if err := transport.Unmarshal(rp, hello); err != nil {
				lastErr = fmt.Errorf("join %s: %w", addr, err)
				continue
			}
			if hello.Err != "" {
				if strings.HasPrefix(hello.Err, incompatiblePrefix) {
					return nil, fmt.Errorf("daemon: join %s rejected: %s", addr, hello.Err)
				}
				lastErr = fmt.Errorf("join %s: %s", addr, hello.Err)
				if hello.StewardAddr != "" && hello.StewardAddr != addr {
					hint = hello.StewardAddr
				}
				continue
			}
			return hello, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon: bootstrap failed after %v: %w",
				time.Duration(d.cfg.JoinTimeout), lastErr)
		}
		select {
		case <-d.ctx.Done():
			return nil, d.ctx.Err()
		case <-time.After(bo.Next()):
		}
	}
}

// applyLocked runs one mutation against the local mirror. It is the
// only place the daemon mutates its overlay or member table: the
// steward's commit and a member's replay both land here, which is what
// makes "the same mutation sequence" the same code.
func (d *Daemon) applyLocked(rec *transport.ApplyRecord) error {
	switch rec.Op {
	case transport.OpRegister:
		return d.cluster.Register(rec.Key, rec.Value)
	case transport.OpUnregister:
		_, err := d.cluster.Unregister(rec.Key, rec.Value)
		return err
	case transport.OpJoin:
		if err := d.cluster.AddRemotePeerWithID(rec.ID, rec.Capacity, rec.Addr); err != nil {
			return err
		}
		d.members[rec.ID] = transport.Member{ID: rec.ID, Addr: rec.Addr, Capacity: rec.Capacity}
		d.syncLinksLocked()
		return nil
	case transport.OpLeave:
		if err := d.cluster.RemovePeer(rec.ID); err != nil {
			return err
		}
		d.forgetMemberLocked(rec.ID)
		return nil
	case transport.OpCrash:
		if err := d.cluster.FailPeer(rec.ID); err != nil {
			return err
		}
		d.forgetMemberLocked(rec.ID)
		return nil
	case transport.OpRecover:
		restored, lost, err := d.cluster.Recover()
		if err == nil {
			d.logf("dlptd: recovered %d nodes (%d lost)", restored, len(lost))
		}
		return err
	case transport.OpReplicate:
		_, err := d.cluster.ReplicateLocal()
		return err
	}
	return fmt.Errorf("daemon: unknown op %d", rec.Op)
}

// forgetMemberLocked drops a departed/crashed member from the table,
// its pooled connection and the link set.
func (d *Daemon) forgetMemberLocked(id keys.Key) {
	if m, ok := d.members[id]; ok {
		d.cluster.DropEndpointAddr(m.Addr)
		delete(d.members, id)
	}
	d.syncLinksLocked()
}

// advanceLocked is a mirror's only way forward: a sequenced record
// that extends the mirror's sequence exactly by one is applied, its
// epoch adopted as the fencing floor if it is newer (a post-election
// replay can reach a member before, or instead of, the barrier), and
// the record logged. Anything else is refused with the mirror's own
// position, which is what tells a steward to repair it; a record that
// fails to apply leaves the mirror where it was.
func (d *Daemon) advanceLocked(rec *transport.ApplyRecord) error {
	if rec.Seq != d.seq+1 {
		return errors.New(gapAck(rec.Seq, d.seq))
	}
	if err := d.applyLocked(rec); err != nil {
		return err
	}
	if rec.Epoch > d.epoch {
		d.adoptEpochLocked(rec.Epoch, "")
	}
	d.seq = rec.Seq
	d.met.MarkApplied(d.seq)
	d.appendLogLocked(rec)
	return nil
}

// appendLogLocked logs one applied record. The log slides inside one
// backing array of twice the bound: when that is full, the newest
// applyLogSize-1 records move to its front — once per applyLogSize
// appends, no allocation — so every commit does not copy the whole log.
func (d *Daemon) appendLogLocked(rec *transport.ApplyRecord) {
	if d.applyLog == nil {
		d.applyLog = make([]transport.ApplyRecord, 0, 2*applyLogSize)
	}
	if len(d.applyLog) == cap(d.applyLog) {
		n := copy(d.applyLog, d.applyLog[len(d.applyLog)-(applyLogSize-1):])
		clear(d.applyLog[n:]) // let go of the strings slid out
		d.applyLog = d.applyLog[:n]
	}
	d.applyLog = append(d.applyLog, *rec)
}

// logTailLocked is the log every reader sees: the contiguous run of at
// most applyLogSize applied records ending at d.seq.
func (d *Daemon) logTailLocked() []transport.ApplyRecord {
	return d.applyLog[max(0, len(d.applyLog)-applyLogSize):]
}

// logCoversLocked reports whether the log tail reaches back to
// sequence from.
func (d *Daemon) logCoversLocked(from uint64) bool {
	tail := d.logTailLocked()
	return len(tail) > 0 && tail[0].Seq <= from
}

// ErrNoSteward is reported (wrapped) when a member exhausts its
// ForwardRetry budget without reaching a live steward — i.e. the
// failover window outlasted the retry budget.
var ErrNoSteward = errors.New("daemon: no steward reachable")

// mutate routes one catalogue mutation through the serialized stream:
// the steward commits it directly; a member forwards an origination
// request to the steward — without holding the daemon lock, because
// the steward's broadcast comes back through this member's own apply
// handler before the forward is acknowledged.
//
// Forwarding retries with jittered exponential backoff across the
// ForwardRetry budget: a failover window looks like a dead dial, a
// "not steward" refusal from a redirect target, or a stale-epoch
// fence, and all of those heal once the election settles. The steward
// address is re-read (and updated from fence hints) each attempt, and
// a member elected mid-retry commits locally. Semantic refusals — the
// mutation itself is invalid — fail immediately.
func (d *Daemon) mutate(op byte, key, value string) error {
	var bo *peering.Backoff // built on the first retry: seeding its source costs more than a commit
	deadline := time.Now().Add(time.Duration(d.cfg.ForwardRetry))
	var lastErr error
	for {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return errors.New(ackShuttingDown)
		}
		if d.steward {
			err := d.commitLocked(&transport.ApplyRecord{Op: op, Key: keys.Key(key), Value: value})
			d.mu.Unlock()
			if !errors.Is(err, errDeposed) {
				return err
			}
			// The next attempt forwards to the steward that fenced us.
			lastErr = err
		} else {
			stewardAddr := d.stewardAddr
			d.mu.Unlock()
			payload := transport.Marshal(&transport.ApplyRecord{Op: op, Key: keys.Key(key), Value: value})
			es, err := d.ackRoundTrip(5*time.Second, stewardAddr, transport.FrameApply, payload)
			switch {
			case errors.Is(err, errBadReply):
				return err
			case err != nil: // no answer: a failover window looks like this
				lastErr = fmt.Errorf("daemon: forward to steward: %w", err)
			case es == "":
				return nil
			default:
				lastErr = errors.New(es)
				r := parseRefusal(es)
				if !r.retryable() {
					return lastErr
				}
				if r.kind == refusalStale {
					d.noteEpoch(r.epoch, r.steward)
				}
			}
			d.cluster.DropEndpointAddr(stewardAddr)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w after %v: %v", ErrNoSteward, time.Duration(d.cfg.ForwardRetry), lastErr)
		}
		if bo == nil {
			bo = peering.NewBackoff(100*time.Millisecond, 2*time.Second, 0.2, d.cfg.Seed+0x5eed)
		}
		select {
		case <-d.ctx.Done():
			return d.ctx.Err()
		case <-time.After(bo.Next()):
		}
	}
}
