// Package daemon turns the in-process TCP cluster into a cross-host
// deployment: every dlptd process hosts one peer and a full-state
// mirror of the overlay, and one process — the steward, the daemon
// started with an empty bootstrap list — serializes every overlay
// mutation into a numbered APPLY stream that keeps the mirrors
// convergent.
//
// The protocol rests on a determinism property of the core overlay:
// the prefix tree's structure is canonical given the key set and the
// ring, and replica placement follows the ring-successor rule, so
// independent processes that apply the same mutation sequence to the
// same starting state hold byte-identical topology and catalogue
// (only load counters drift, and nothing validates those). Routing
// then needs no coordination at all — every daemon resolves HostOf
// locally and relays discovery, routing and stream frames straight to
// the owning process.
//
// Joining: a member binds its listener first, then dials a bootstrap
// address and sends JOIN (version, alphabet, placement, advertised
// address, capacity). The steward validates compatibility, admits the
// peer through the ordinary membership path, broadcasts the join to
// the existing members, and answers HELLO with the assigned ring id
// and a transport.Mirror: epoch, sequence number, member table and the
// overlay image (the bytes a snapshot file holds, captured
// copy-on-write and encoded off the cluster lock) consistent with that
// sequence number. The joiner installs it through installMirrorLocked,
// the one install a first join, a RESYNC and a deposed steward's rejoin
// share. A member that receives JOIN redirects the joiner to the
// steward.
//
// Mutating: members forward Register/Unregister to the steward as an
// APPLY with sequence 0 (an origination request); the steward applies
// it, assigns the next sequence number and synchronously broadcasts
// the record to every member — including the originator — before
// acknowledging. A member refuses any record that does not extend its
// sequence exactly by one.
//
// Failure: each daemon's peering.Maintainer probes its links with
// STATUS round-trips. The steward acts on a member's loss: after the
// miss threshold it declares the member crashed (CrashPeer), recovers
// the lost nodes from ring-successor replicas, and broadcasts both
// steps.
//
// Steward failover: every control frame carries the steward epoch
// alongside its sequence number. When members lose the steward link,
// the survivor with the lowest ring id among the unsuspected members
// proposes itself under a bumped epoch; each voter grants at most one
// promise per epoch, and a majority of the known members elects. The
// winner first pulls any records it missed from its most advanced
// voter, then runs the epoch-open barrier: every member adopts the
// new epoch and steward address and reports its last applied sequence
// number — gaps replay from the winner's bounded apply log, members
// too far behind (or ahead) install a full RESYNC mirror — and
// finally the old steward's crash is serialized under the new epoch.
// Receivers refuse control traffic fenced behind their epoch, so a
// paused-then-resumed old steward's late broadcasts bounce; the
// stale-epoch refusals (and the epoch in probed STATUS replies) tell
// it that it was deposed, and it rejoins as a plain member under a
// fresh ring id. Elections need a majority, so a two-daemon overlay
// cannot fail over; members that miss a broadcast mid-epoch still
// converge through the next barrier or the probe-loop crash path.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dlpt/internal/catalog"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/peering"
	"dlpt/internal/persist"
	"dlpt/internal/trace"
	"dlpt/internal/transport"
)

// incompatiblePrefix marks join rejections that no amount of retrying
// will fix (version, alphabet, placement or address conflicts); the
// join loop fails fast on them instead of backing off.
const incompatiblePrefix = "incompatible: "

// Daemon is one dlptd process: a single-peer cluster holding a full
// overlay mirror, the control-plane protocol around it, and the link
// maintenance loop.
type Daemon struct {
	cfg           Config
	alpha         *keys.Alphabet
	alphaDigits   string
	placementName string
	logf          func(format string, args ...any)

	cluster *transport.Cluster
	store   *persist.Store
	maint   *peering.Maintainer

	// Observability: every daemon aggregates metrics and records spans
	// (the wire path serves them via the "obs" admin op); the HTTP
	// endpoint only binds when Config.MetricsAddr asks for it.
	obsReg     *obs.Registry
	met        *obs.Metrics
	rec        *trace.Recorder
	metricsLn  net.Listener
	metricsSrv *http.Server

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	steward     bool                          // guarded by mu
	selfID      keys.Key                      // guarded by mu
	selfAddr    string                        // guarded by mu
	stewardAddr string                        // guarded by mu
	seq         uint64                        // guarded by mu
	members     map[keys.Key]transport.Member // guarded by mu
	closed      bool                          // guarded by mu

	// Failover state. epoch is the steward generation this daemon
	// honors (fencing floor for inbound control frames); promised is
	// the highest election proposal granted, never re-granted lower,
	// and promisedTo the address it was granted to (a candidate may
	// re-propose its own promised epoch across retry rounds, so slow
	// voters don't inflate the epoch). suspected tracks addresses
	// whose links crossed the miss threshold; electing serializes this
	// daemon's candidate loop. applyLog is the bounded contiguous tail
	// of applied records ending at seq, the replay source for
	// post-election gap repair.
	epoch         uint64                  // guarded by mu
	promised      uint64                  // guarded by mu
	promisedTo    string                  // guarded by mu
	suspected     map[string]bool         // guarded by mu
	electing      bool                    // guarded by mu
	stewardDownAt time.Time               // guarded by mu
	applyLog      []transport.ApplyRecord // guarded by mu
}

// Start brings a daemon up according to cfg: a steward seeds a fresh
// overlay (reloading its durable catalogue if DataDir has one), a
// member joins through the bootstrap list, retrying with backoff
// until JoinTimeout. logf receives operational log lines (nil means
// the standard logger).
func Start(cfg Config, logf func(format string, args ...any)) (*Daemon, error) {
	cfg = cfg.withDefaults()
	alpha, err := alphabetFor(cfg.Alphabet)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:         cfg,
		alpha:       alpha,
		alphaDigits: string(alpha.Digits()),
		logf:        logf,
		members:     make(map[keys.Key]transport.Member),
		suspected:   make(map[string]bool),
	}
	d.obsReg = obs.NewRegistry()
	d.met = obs.NewMetrics(d.obsReg)
	d.rec = trace.NewRecorder(trace.DefaultCapacity)
	if d.logf == nil {
		d.logf = log.Printf
	}
	if cfg.Placement != "" {
		strat, err := lb.ByName(cfg.Placement)
		if err != nil {
			return nil, err
		}
		d.placementName = strat.Name()
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	if len(cfg.Bootstrap) == 0 {
		err = d.startSteward()
	} else {
		err = d.startMember()
	}
	if err != nil {
		d.cancel()
		return nil, err
	}
	if cfg.MetricsAddr != "" {
		if err := d.startMetrics(cfg.MetricsAddr); err != nil {
			d.cancel()
			d.cluster.Stop()
			if d.store != nil {
				d.store.Close()
			}
			return nil, err
		}
	}
	d.maint = peering.New(peering.Config{
		Probe:         d.probe,
		Interval:      time.Duration(cfg.ProbeEvery),
		MissThreshold: cfg.MissThreshold,
		OnDown:        d.onLinkDown,
		OnUp:          d.onLinkUp,
		Seed:          cfg.Seed,
	})
	d.mu.Lock()
	d.syncLinksLocked()
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.maint.Run(d.ctx)
	}()
	// Every daemon runs the replication loop: the tick no-ops unless
	// this daemon currently holds stewardship, so an elected member
	// starts replicating and a deposed steward stops, without loop
	// lifecycle churn.
	d.wg.Add(1)
	go d.replicateLoop()
	role := "member"
	if d.steward {
		role = "steward"
	}
	d.logf("dlptd %s up: peer %s at %s", role, d.selfID, d.selfAddr)
	return d, nil
}

// startMetrics binds the opt-in observability HTTP listener: /metrics
// serves the Prometheus exposition text and /debug/trace the recent
// span trees as JSON.
func (d *Daemon) startMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("daemon: metrics listener: %w", err)
	}
	d.metricsLn = ln
	d.metricsSrv = &http.Server{Handler: obs.Handler(d.obsReg, d.rec)}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := d.metricsSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.logf("dlptd: metrics server: %v", err)
		}
	}()
	d.logf("dlptd: metrics at http://%s/metrics", ln.Addr())
	return nil
}

// MetricsAddr returns the bound metrics listener address, "" when the
// endpoint is disabled.
func (d *Daemon) MetricsAddr() string {
	if d.metricsLn == nil {
		return ""
	}
	return d.metricsLn.Addr().String()
}

// startSteward seeds a fresh single-peer overlay. With a data
// directory, the previous catalogue — snapshot plus journal tail — is
// folded and re-registered: the catalogue survives a steward restart,
// the membership does not (members always rejoin through the
// handshake and receive fresh mirrors).
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
		d.store = store
		entries = foldCatalogue(st)
		st.Release()
	}
	opts := transport.Options{
		Options:       overlay.Options{Persist: d.store, Obs: d.met, Trace: d.rec},
		Bind:          d.cfg.Listen,
		AdvertiseHost: d.cfg.Advertise,
		Control:       d.control,
		Faults:        d.cfg.Faults,
	}
	if d.placementName != "" {
		strat, err := lb.ByName(d.placementName)
		if err != nil {
			return err
		}
		opts.Placement = strat
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
	d.stewardAddr = d.selfAddr
	d.epoch, d.promised = 1, 1
	d.met.MarkEpoch(d.epoch)
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

// foldCatalogue flattens a loaded persistent state — snapshot plus
// journal tail — into the registration list for a fresh overlay.
func foldCatalogue(st *persist.LoadedState) []core.KV {
	vals := make(map[string]map[string]bool)
	add := func(k, v string) {
		if vals[k] == nil {
			vals[k] = make(map[string]bool)
		}
		vals[k][v] = true
	}
	if st.Snapshot != nil {
		_ = st.Snapshot.Ascend(func(e catalog.Entry) bool {
			for _, v := range e.Values {
				add(e.Key, v)
			}
			return true
		})
	}
	for _, r := range st.Journal {
		if r.Remove {
			if vs := vals[r.Key]; vs != nil {
				delete(vs, r.Value)
			}
		} else {
			add(r.Key, r.Value)
		}
	}
	ks := make([]string, 0, len(vals))
	for k := range vals {
		if len(vals[k]) > 0 {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	var out []core.KV
	for _, k := range ks {
		vs := make([]string, 0, len(vals[k]))
		for v := range vals[k] {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		for _, v := range vs {
			out = append(out, core.KV{Key: keys.Key(k), Value: v})
		}
	}
	return out
}

// startMember binds the listener first (so JOIN can advertise it),
// starts an empty cluster, joins through the bootstrap list and
// installs the steward's mirror, adopting that listener. The daemon
// lock is held across join and install: APPLY broadcasts that race the
// installation queue behind it and then extend the sequence in order.
func (d *Daemon) startMember() error {
	ln, err := net.Listen("tcp", transport.NormalizeBind(d.cfg.Listen))
	if err != nil {
		return err
	}
	d.selfAddr = transport.AdvertiseAddr(ln.Addr().String(), d.cfg.Advertise)
	c, err := transport.StartOpts(d.alpha, nil, d.cfg.Seed, transport.Options{
		Options:       overlay.Options{Obs: d.met, Trace: d.rec},
		AllowEmpty:    true,
		AdvertiseHost: d.cfg.Advertise,
		Control:       d.control,
		Faults:        d.cfg.Faults,
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
	d.epoch = m.Epoch
	d.promised = max(d.promised, m.Epoch)
	d.met.MarkEpoch(d.epoch)
	d.stewardAddr = m.StewardAddr
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
	payload := transport.EncodeJoin(&transport.JoinRequest{
		Version:   transport.HandshakeVersion,
		Alphabet:  d.alphaDigits,
		Placement: d.placementName,
		Addr:      d.selfAddr,
		Capacity:  d.cfg.Capacity,
	})
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	backoff := 100 * time.Millisecond
	deadline := time.Now().Add(time.Duration(d.cfg.JoinTimeout))
	var hint string // learned steward address; evicted on dial failure
	var lastErr error
	for {
		targets := base
		if hint != "" && !contains(base, hint) {
			targets = append([]string{hint}, base...)
		}
		for _, addr := range targets {
			cctx, cancel := context.WithTimeout(d.ctx, 3*time.Second)
			rtyp, rp, err := d.cluster.ControlRoundTrip(cctx, addr, transport.FrameJoin, payload)
			cancel()
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
			if rtyp != transport.FrameHello {
				// Not the handshake's own refusal (a HELLO carrying Err):
				// the far side could not answer JOIN at all — no daemon
				// behind the listener, or an admission too large for one
				// frame. Retrying cannot change that.
				return nil, fmt.Errorf("daemon: join %s: %w", addr, replyError(rtyp, rp))
			}
			hello, err := transport.DecodeHello(rp)
			if err != nil {
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
		case <-time.After(backoff + time.Duration(rng.Int63n(int64(backoff/2)+1))):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// bumpSeqLocked advances the apply-stream sequence and stamps the
// metrics gauge (dlpt_apply_seq) and the lag clock behind
// dlpt_apply_lag_seconds.
func (d *Daemon) bumpSeqLocked() {
	d.seq++
	d.met.MarkApplied(d.seq)
}

// control dispatches the control-plane frames the transport hands us.
func (d *Daemon) control(typ byte, payload []byte) (byte, []byte) {
	switch typ {
	case transport.FrameJoin:
		return d.handleJoin(payload)
	case transport.FrameLeave:
		return d.handleLeave(payload)
	case transport.FrameApply:
		return d.handleApply(payload)
	case transport.FrameStatus:
		return d.handleStatus()
	case transport.FrameAdmin:
		return d.handleAdmin(payload)
	case transport.FrameElect:
		return d.handleElect(payload)
	case transport.FrameEpochOpen:
		return d.handleEpochOpen(payload)
	case transport.FrameResync:
		return d.handleResync(payload)
	case transport.FrameFetch:
		return d.handleFetch(payload)
	}
	return transport.FrameAck, transport.EncodeAck(fmt.Sprintf("daemon: unknown control frame %d", typ))
}

// handleJoin admits (or rejects) a joining daemon. Members redirect
// to the steward; the steward validates compatibility, runs the
// ordinary membership join with the joiner's advertised address,
// broadcasts the join to the existing members and replies with the
// mirror.
func (d *Daemon) handleJoin(payload []byte) (byte, []byte) {
	reject := func(errStr, steward string) (byte, []byte) {
		return transport.FrameHello, transport.EncodeHello(&transport.HelloInfo{
			Version: transport.HandshakeVersion, Err: errStr,
			Mirror: transport.Mirror{StewardAddr: steward},
		})
	}
	jr, err := transport.DecodeJoin(payload)
	if err != nil {
		return reject("daemon: malformed join: "+err.Error(), "")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return reject(ackShuttingDown, "")
	}
	if !d.steward {
		return reject(ackNotSteward, d.stewardAddr)
	}
	if jr.Version != transport.HandshakeVersion {
		return reject(fmt.Sprintf("%shandshake version %d, want %d",
			incompatiblePrefix, jr.Version, transport.HandshakeVersion), "")
	}
	if jr.Alphabet != d.alphaDigits {
		return reject(incompatiblePrefix+"alphabet mismatch", "")
	}
	if jr.Placement != d.placementName {
		return reject(fmt.Sprintf("%splacement %q, want %q",
			incompatiblePrefix, jr.Placement, d.placementName), "")
	}
	if jr.Capacity <= 0 {
		return reject(incompatiblePrefix+"capacity must be positive", "")
	}
	for _, m := range d.members {
		if m.Addr == jr.Addr {
			return reject(incompatiblePrefix+"address already joined: "+jr.Addr, "")
		}
	}
	id, err := d.cluster.JoinRemotePeer(jr.Capacity, jr.Addr)
	if err != nil {
		return reject("daemon: join failed: "+err.Error(), "")
	}
	d.bumpSeqLocked()
	// Broadcast before adding the joiner to the table: the joiner's
	// mirror snapshot below already contains its own join.
	d.broadcastLocked(&transport.ApplyRecord{
		Seq: d.seq, Op: transport.OpJoin, ID: id, Capacity: jr.Capacity, Addr: jr.Addr,
	})
	d.members[id] = transport.Member{ID: id, Addr: jr.Addr, Capacity: jr.Capacity}
	d.syncLinksLocked()
	d.logf("dlptd steward admitted peer %s at %s (overlay now %d daemons)", id, jr.Addr, len(d.members))
	return transport.FrameHello, transport.EncodeHello(&transport.HelloInfo{
		Version:    transport.HandshakeVersion,
		Alphabet:   d.alphaDigits,
		Placement:  d.placementName,
		AssignedID: id,
		Mirror:     d.mirrorLocked(),
	})
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
		Image:       d.cluster.MirrorImage(),
	}
}

// handleLeave runs a member's graceful departure: the peer's nodes
// hand off deterministically in every mirror via the broadcast.
func (d *Daemon) handleLeave(payload []byte) (byte, []byte) {
	notice, err := transport.DecodeLeave(payload)
	if err != nil {
		return transport.FrameAck, transport.EncodeAck("daemon: malformed leave: " + err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.steward {
		return transport.FrameAck, transport.EncodeAck(ackNotSteward)
	}
	if notice.Epoch < d.epoch {
		return transport.FrameAck, transport.EncodeAck(staleEpochAck(d.epoch, d.stewardAddr))
	}
	m, ok := d.members[notice.ID]
	if !ok {
		return transport.FrameAck, transport.EncodeAck("") // already departed
	}
	if err := d.cluster.RemovePeer(notice.ID); err != nil {
		return transport.FrameAck, transport.EncodeAck("daemon: leave: " + err.Error())
	}
	delete(d.members, notice.ID)
	d.cluster.DropEndpointAddr(m.Addr)
	d.bumpSeqLocked()
	d.broadcastLocked(&transport.ApplyRecord{Seq: d.seq, Op: transport.OpLeave, ID: notice.ID, Addr: m.Addr})
	d.syncLinksLocked()
	d.logf("dlptd steward: peer %s at %s left (overlay now %d daemons)", notice.ID, m.Addr, len(d.members))
	return transport.FrameAck, transport.EncodeAck("")
}

// handleApply processes one mutation record: sequence 0 is a member's
// origination request the steward serializes and broadcasts; a
// positive sequence is the steward's broadcast a member replays iff
// it extends the mirror's sequence exactly.
func (d *Daemon) handleApply(payload []byte) (byte, []byte) {
	ack := func(errStr string) (byte, []byte) {
		return transport.FrameAck, transport.EncodeAck(errStr)
	}
	rec, err := transport.DecodeApply(payload)
	if err != nil {
		return ack("daemon: malformed apply: " + err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if rec.Seq == 0 {
		// Origination requests carry no stream position, so epoch
		// fencing does not apply: the steward serializes them under its
		// own epoch.
		if !d.steward {
			return ack(ackNotSteward)
		}
		if rec.Op != transport.OpRegister && rec.Op != transport.OpUnregister {
			return ack("daemon: only catalogue mutations originate remotely")
		}
		if err := d.applyLocked(rec); err != nil {
			return ack(err.Error())
		}
		d.bumpSeqLocked()
		rec.Seq = d.seq
		if d.broadcastLocked(rec) {
			// Fenced mid-broadcast: a newer steward exists, so this
			// write was never committed under a live epoch. Refuse it —
			// the originator retries against the new steward, and the
			// rejoin reset discards this mirror's divergence.
			return ack(ackDeposed)
		}
		return ack("")
	}
	if rec.Epoch < d.epoch {
		// Epoch fence: a deposed steward's late broadcast. The refusal
		// names the live epoch and steward so the sender learns its fate.
		return ack(staleEpochAck(d.epoch, d.stewardAddr))
	}
	if d.steward {
		return ack("daemon: steward does not accept sequenced applies")
	}
	if rec.Seq != d.seq+1 {
		return ack(fmt.Sprintf("daemon: sequence gap: got %d, want %d", rec.Seq, d.seq+1))
	}
	if err := d.applyLocked(rec); err != nil {
		// The mirror did not advance: the steward will log the refusal
		// and the probe loop eventually crashes this daemon out rather
		// than let a divergent mirror serve.
		return ack(err.Error())
	}
	if rec.Epoch > d.epoch {
		// Post-election replay reached us before (or instead of) the
		// barrier: adopt the stream's epoch as the new fencing floor.
		d.epoch = rec.Epoch
		d.promised = max(d.promised, rec.Epoch)
		d.met.MarkEpoch(d.epoch)
	}
	d.seq = rec.Seq
	d.met.MarkApplied(d.seq)
	d.appendLogLocked(rec)
	return ack("")
}

// appendLogLocked keeps the bounded contiguous tail of applied
// records ending at d.seq — the replay source for post-election gap
// repair on whichever daemon wins an election.
func (d *Daemon) appendLogLocked(rec *transport.ApplyRecord) {
	d.applyLog = append(d.applyLog, *rec)
	if n := d.cfg.ResyncLogSize; len(d.applyLog) > n {
		d.applyLog = append(d.applyLog[:0:0], d.applyLog[len(d.applyLog)-n:]...)
	}
}

// applyLocked replays one mutation against the local mirror.
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
		_, _, err := d.cluster.Recover()
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

// broadcastLocked stamps one sequenced record with the current epoch,
// appends it to the apply log and ships it to every other member,
// synchronously and in sorted order — the steward never has two
// records in flight to the same member, so the per-member sequence
// check cannot trip on reordering. A member that fails its broadcast
// is logged and left to the probe loop. The return reports whether a
// member's stale-epoch refusal revealed that this steward was deposed
// (the demotion and rejoin are already underway when it returns true).
func (d *Daemon) broadcastLocked(rec *transport.ApplyRecord) bool {
	rec.Epoch = d.epoch
	d.appendLogLocked(rec)
	payload := transport.EncodeApply(rec)
	ids := make([]keys.Key, 0, len(d.members))
	for id := range d.members {
		if id != d.selfID {
			ids = append(ids, id)
		}
	}
	keys.SortKeys(ids)
	var deposedEpoch uint64
	var deposedSteward string
	for _, id := range ids {
		m := d.members[id]
		es, err := d.ackRoundTrip(5*time.Second, m.Addr, transport.FrameApply, payload)
		if err != nil {
			d.logf("dlptd: apply seq %d to %s (%s) failed: %v", rec.Seq, id, m.Addr, err)
		} else if e, saddr, ok := parseStaleEpoch(es); ok && e > d.epoch {
			deposedEpoch, deposedSteward = e, saddr
			d.logf("dlptd: apply seq %d fenced by %s: %s", rec.Seq, id, es)
		} else if es != "" {
			d.logf("dlptd: apply seq %d refused by %s: %s", rec.Seq, id, es)
		}
	}
	if deposedEpoch > d.epoch {
		d.deposeLocked(deposedEpoch, deposedSteward)
		return true
	}
	return false
}

// errBadAck marks a reply that is not a decodable ACK frame: the peer
// answered, so it is a protocol fault and not a link failure.
var errBadAck = errors.New("daemon: malformed ack")

// ackRoundTrip sends one control frame and waits up to timeout for
// its ACK. refusal is the receiver's in-band answer ("" means
// accepted); err reports that no answer was obtained.
func (d *Daemon) ackRoundTrip(timeout time.Duration, addr string, typ byte, payload []byte) (refusal string, err error) {
	ctx, cancel := context.WithTimeout(d.ctx, timeout)
	defer cancel()
	rtyp, rp, err := d.cluster.ControlRoundTrip(ctx, addr, typ, payload)
	if err != nil {
		return "", err
	}
	if rtyp != transport.FrameAck {
		return "", fmt.Errorf("%w: reply frame %d", errBadAck, rtyp)
	}
	if refusal, err = transport.DecodeAck(rp); err != nil {
		return "", fmt.Errorf("%w: %v", errBadAck, err)
	}
	return refusal, nil
}

// probe is the link-maintenance health check: one STATUS round-trip
// on the pooled connection. A failure evicts the pooled connection,
// so the next probe — and the next relay — dials fresh: the probe
// loop is the re-dial loop. The reply's epoch is inspected: a steward
// that paused through an election learns from any probed peer that a
// higher epoch exists and that it was deposed.
func (d *Daemon) probe(ctx context.Context, addr string) error {
	rtyp, rp, err := d.cluster.ControlRoundTrip(ctx, addr, transport.FrameStatus, nil)
	if err != nil {
		d.cluster.DropEndpointAddr(addr)
		return err
	}
	if rtyp != transport.FrameStatusResp {
		return fmt.Errorf("daemon: probe reply frame %d", rtyp)
	}
	var st Status
	if err := json.Unmarshal(rp, &st); err == nil {
		d.noteEpoch(st.Epoch, st.StewardAddr)
	}
	return nil
}

// noteEpoch reacts to an epoch observed on a probed peer: a higher
// one demotes a deposed steward (triggering its rejoin) or advances a
// lagging member's fencing floor.
func (d *Daemon) noteEpoch(epoch uint64, stewardAddr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || epoch <= d.epoch {
		return
	}
	if d.steward {
		d.deposeLocked(epoch, stewardAddr)
		return
	}
	d.epoch = epoch
	d.promised = max(d.promised, epoch)
	if stewardAddr != "" && stewardAddr != d.selfAddr {
		d.stewardAddr = stewardAddr
	}
	d.met.MarkEpoch(d.epoch)
}

// onLinkDown reacts to a link crossing the miss threshold. The
// steward declares the member crashed, recovers the lost subtree from
// the ring-successor replicas, and broadcasts both steps so every
// mirror converges. A member marks the address suspected and — when
// the loss is the steward itself and this member is the election
// candidate — starts an election.
func (d *Daemon) onLinkDown(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.suspected[addr] = true
	if !d.steward {
		d.logf("dlptd: link to %s lost", addr)
		d.maybeElectLocked()
		return
	}
	var id keys.Key
	found := false
	for mid, m := range d.members {
		if m.Addr == addr {
			id, found = mid, true
			break
		}
	}
	if !found {
		return
	}
	d.crashPeerLocked(id, addr)
}

// crashPeerLocked serializes one member's crash under the current
// epoch: fail the peer, broadcast the crash, recover the lost nodes
// from ring-successor replicas, broadcast the recovery. Steward only;
// callers hold d.mu.
func (d *Daemon) crashPeerLocked(id keys.Key, addr string) {
	d.logf("dlptd steward: peer %s at %s declared crashed", id, addr)
	if err := d.cluster.FailPeer(id); err != nil {
		d.logf("dlptd steward: crash %s: %v", id, err)
		return
	}
	delete(d.members, id)
	d.cluster.DropEndpointAddr(addr)
	d.bumpSeqLocked()
	d.broadcastLocked(&transport.ApplyRecord{Seq: d.seq, Op: transport.OpCrash, ID: id, Addr: addr})
	restored, lost, err := d.cluster.Recover()
	if err != nil {
		d.logf("dlptd steward: recover after %s: %v", id, err)
	} else {
		d.logf("dlptd steward: recovered %d nodes (%d lost) after %s", restored, len(lost), id)
	}
	d.bumpSeqLocked()
	d.broadcastLocked(&transport.ApplyRecord{Seq: d.seq, Op: transport.OpRecover})
	d.syncLinksLocked()
}

// onLinkUp clears the suspicion on a recovered link. A crashed member
// was already removed from the overlay; a restarted daemon at the
// same address re-joins through the handshake, so no other state
// transition happens here.
func (d *Daemon) onLinkUp(addr string) {
	d.mu.Lock()
	delete(d.suspected, addr)
	d.mu.Unlock()
	d.logf("dlptd: link to %s recovered", addr)
}

// syncLinksLocked points the maintainer at every other member's
// address (for a member this covers the steward and its ring
// neighbors) and prunes suspicions of addresses no longer linked.
func (d *Daemon) syncLinksLocked() {
	if d.maint == nil {
		return
	}
	addrs := make([]string, 0, len(d.members))
	live := make(map[string]bool, len(d.members))
	for id, m := range d.members {
		if id != d.selfID {
			addrs = append(addrs, m.Addr)
			live[m.Addr] = true
		}
	}
	for a := range d.suspected {
		if !live[a] {
			delete(d.suspected, a)
		}
	}
	d.maint.SetLinks(addrs)
}

// memberListLocked flattens the member table, sorted by ring id.
func (d *Daemon) memberListLocked() []transport.Member {
	out := make([]transport.Member, 0, len(d.members))
	for _, m := range d.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
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
	if _, err := d.cluster.ReplicateLocal(); err != nil {
		return err
	}
	d.bumpSeqLocked()
	d.broadcastLocked(&transport.ApplyRecord{Seq: d.seq, Op: transport.OpReplicate})
	return nil
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

// Close shuts the daemon down. A member leaves gracefully first (the
// steward hands its nodes off and broadcasts the departure), then the
// cluster, maintenance loop and store stop. Idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	steward := d.steward
	stewardAddr := d.stewardAddr
	selfID, selfAddr := d.selfID, d.selfAddr
	epoch := d.epoch
	d.mu.Unlock()
	if !steward {
		payload := transport.EncodeLeave(&transport.LeaveNotice{ID: selfID, Addr: selfAddr, Epoch: epoch})
		es, err := d.ackRoundTrip(5*time.Second, stewardAddr, transport.FrameLeave, payload)
		if err != nil {
			d.logf("dlptd: graceful leave failed: %v", err)
		} else if es != "" {
			d.logf("dlptd: leave refused: %s", es)
		}
	}
	d.cancel()
	if d.metricsSrv != nil {
		d.metricsSrv.Close()
	}
	d.cluster.Stop()
	if d.store != nil {
		d.store.Close()
	}
	d.wg.Wait()
	return nil
}

// Cluster exposes the daemon's transport cluster (tests and tooling).
func (d *Daemon) Cluster() *transport.Cluster { return d.cluster }

// Addr returns the daemon's advertised listener address.
func (d *Daemon) Addr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.selfAddr
}

// SelfID returns the daemon's assigned ring id.
func (d *Daemon) SelfID() keys.Key {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.selfID
}

// IsSteward reports whether this daemon serializes the overlay's
// mutations.
func (d *Daemon) IsSteward() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.steward
}

// MemberCount returns the number of daemons currently in the member
// table (including this one).
func (d *Daemon) MemberCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.members)
}

// Seq returns the last applied mutation sequence number.
func (d *Daemon) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Epoch returns the steward generation this daemon honors.
func (d *Daemon) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Status captures the daemon's externally visible state (the
// handleStatus reply and the local view share this path).
func (d *Daemon) Status() *Status {
	d.mu.Lock()
	role := "member"
	if d.steward {
		role = "steward"
	}
	st := &Status{
		Role:        role,
		ID:          string(d.selfID),
		Addr:        d.selfAddr,
		StewardAddr: d.stewardAddr,
		Epoch:       d.epoch,
		Seq:         d.seq,
	}
	for _, m := range d.memberListLocked() {
		st.Members = append(st.Members, MemberInfo{ID: string(m.ID), Addr: m.Addr, Capacity: m.Capacity})
	}
	d.mu.Unlock()
	st.Peers = d.cluster.NumPeers()
	st.Nodes = d.cluster.NumNodes()
	if d.maint != nil {
		st.Links = d.maint.Snapshot()
	}
	return st
}

func (d *Daemon) handleStatus() (byte, []byte) {
	b, err := json.Marshal(d.Status())
	if err != nil {
		return transport.FrameAck, transport.EncodeAck("daemon: status: " + err.Error())
	}
	return transport.FrameStatusResp, b
}

func (d *Daemon) handleAdmin(payload []byte) (byte, []byte) {
	var req AdminRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		b, _ := json.Marshal(&AdminResponse{Err: "daemon: malformed admin request: " + err.Error()})
		return transport.FrameAdminResp, b
	}
	resp := d.admin(&req)
	b, err := json.Marshal(resp)
	if err != nil {
		b, _ = json.Marshal(&AdminResponse{Err: "daemon: admin: " + err.Error()})
	}
	return transport.FrameAdminResp, b
}

// admin executes one admin operation against the overlay. Catalogue
// mutations route through the serialized apply stream; reads run
// directly on the local mirror (discoveries and streamed queries
// still hop to the owning daemons over the wire).
func (d *Daemon) admin(req *AdminRequest) *AdminResponse {
	resp := &AdminResponse{}
	ctx, cancel := context.WithTimeout(d.ctx, 30*time.Second)
	defer cancel()
	switch req.Op {
	case "register":
		if err := d.mutate(transport.OpRegister, req.Key, req.Value); err != nil {
			resp.Err = err.Error()
		}
	case "unregister":
		if err := d.mutate(transport.OpUnregister, req.Key, req.Value); err != nil {
			resp.Err = err.Error()
		}
	case "discover":
		res, err := d.cluster.DiscoverContext(ctx, keys.Key(req.Key))
		if err != nil {
			resp.Err = err.Error()
			break
		}
		resp.Found = res.Found
		resp.Values = res.Values
		resp.Logical = res.LogicalHops
		resp.Physical = res.PhysicalHops
		resp.Dropped = res.Dropped
	case "complete", "range":
		spec := core.QuerySpec{Limit: req.Limit}
		if req.Op == "range" {
			spec.Range = true
			spec.Lo, spec.Hi = keys.Key(req.Lo), keys.Key(req.Hi)
		} else {
			spec.Prefix = keys.Key(req.Prefix)
		}
		s, err := d.cluster.StreamQuery(ctx, spec)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		for k, ok := s.Next(); ok; k, ok = s.Next() {
			resp.Keys = append(resp.Keys, string(k))
		}
		if err := s.Err(); err != nil {
			resp.Err = err.Error()
		}
		st := s.Stats()
		resp.Logical = st.LogicalHops
		resp.Physical = st.PhysicalHops
		resp.Visited = st.NodesVisited
		s.Close()
	case "validate":
		if err := d.cluster.Validate(); err != nil {
			resp.Err = err.Error()
		}
	case "obs":
		// The same counters the /metrics endpoint exports, over the
		// admin wire path (dlptd status -obs) — no HTTP listener needed.
		resp.Obs = d.obsReg.Snapshot()
	default:
		resp.Err = fmt.Sprintf("daemon: unknown admin op %q", req.Op)
	}
	return resp
}

// ErrNoSteward is reported (wrapped) when a member exhausts its
// ForwardRetry budget without reaching a live steward — i.e. the
// failover window outlasted the retry budget.
var ErrNoSteward = errors.New("daemon: no steward reachable")

// mutate routes one catalogue mutation through the serialized stream:
// the steward applies and broadcasts directly; a member forwards an
// origination request to the steward — without holding the daemon
// lock, because the steward's broadcast comes back through this
// member's own apply handler before the forward is acknowledged.
//
// Forwarding retries with jittered exponential backoff across the
// ForwardRetry budget: a failover window looks like a dead dial, a
// "not steward" refusal from a redirect target, or a stale-epoch
// fence, and all of those heal once the election settles. The steward
// address is re-read (and updated from fence hints) each attempt, and
// a member elected mid-retry applies locally. Semantic refusals — the
// mutation itself is invalid — fail immediately.
func (d *Daemon) mutate(op byte, key, value string) error {
	bo := peering.NewBackoff(100*time.Millisecond, 2*time.Second, 0.2, d.cfg.Seed+0x5eed)
	deadline := time.Now().Add(time.Duration(d.cfg.ForwardRetry))
	var lastErr error
	for {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return errors.New(ackShuttingDown)
		}
		if d.steward {
			rec := &transport.ApplyRecord{Op: op, Key: keys.Key(key), Value: value}
			if err := d.applyLocked(rec); err != nil {
				d.mu.Unlock()
				return err
			}
			d.bumpSeqLocked()
			rec.Seq = d.seq
			deposed := d.broadcastLocked(rec)
			d.mu.Unlock()
			if !deposed {
				return nil
			}
			// Fenced mid-broadcast: the write never committed under a
			// live epoch (the rejoin reset discards the local apply).
			// Fall through to the retry loop — the next attempt forwards
			// to the steward that fenced us.
			lastErr = errors.New(ackDeposed)
		} else {
			stewardAddr := d.stewardAddr
			d.mu.Unlock()
			payload := transport.EncodeApply(&transport.ApplyRecord{Op: op, Key: keys.Key(key), Value: value})
			es, err := d.ackRoundTrip(5*time.Second, stewardAddr, transport.FrameApply, payload)
			switch {
			case errors.Is(err, errBadAck):
				return err
			case err != nil: // no answer: a failover window looks like this
				lastErr = fmt.Errorf("daemon: forward to steward: %w", err)
			case es == "":
				return nil
			default:
				lastErr = errors.New(es)
				retry, hintEpoch, hintAddr := retryableRefusal(es)
				if !retry {
					return lastErr
				}
				if hintAddr != "" {
					d.noteEpoch(hintEpoch, hintAddr)
				}
			}
			d.cluster.DropEndpointAddr(stewardAddr)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w after %v: %v", ErrNoSteward, time.Duration(d.cfg.ForwardRetry), lastErr)
		}
		select {
		case <-d.ctx.Done():
			return d.ctx.Err()
		case <-time.After(bo.Next()):
		}
	}
}

// Steward-churn refusals: in-band answers that say nothing about the
// mutation and heal once the failover settles.
const (
	ackNotSteward   = "daemon: not steward"
	ackDeposed      = "daemon: deposed during broadcast, retry"
	ackShuttingDown = "daemon: shutting down"
)

// retryableRefusal classifies the steward's in-band refusal of a
// forwarded mutation: the origination loop keeps retrying steward
// churn; anything else is a semantic refusal surfaced immediately. A
// stale-epoch fence also yields the refuser's (epoch, steward address)
// hint. The match is on the whole fixed strings the daemon emits, never
// on a substring: a semantic refusal quotes client input, which may
// spell any phrase.
func retryableRefusal(es string) (retry bool, hintEpoch uint64, hintAddr string) {
	if e, saddr, ok := parseStaleEpoch(es); ok {
		return true, e, saddr
	}
	switch es {
	case ackNotSteward, ackDeposed, ackShuttingDown:
		return true, 0, ""
	}
	return false, 0, ""
}
