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
// address, capacity). The steward validates compatibility, draws the
// ring id, commits the join as a record like any other, and answers
// HELLO with the assigned ring id and a transport.Mirror: epoch,
// sequence number, member table and the overlay image (the bytes a
// snapshot file holds, on a durable steward folded from its newest
// image and journal and encoded off the cluster lock) consistent with
// that sequence number. The joiner
// installs it through installMirrorLocked, the one install a first
// join, a RESYNC and a deposed steward's rejoin share. A member that
// receives JOIN redirects the joiner to the steward.
//
// Mutating: "the same mutation sequence" is one function on each
// side. Whatever changes the overlay — a catalogue write, a join, a
// leave, a crash, a recovery, a replication tick — the steward commits
// as one record (commitLocked): run applyLocked, the code a member
// replays the record with, assign the next sequence number, log, and
// broadcast synchronously to every member before acknowledging.
// Members forward Register/Unregister to the steward as an APPLY with
// sequence 0 (an origination request). A mirror moves only through
// advanceLocked, which refuses a record that does not extend its
// sequence exactly by one and says in the refusal where it stands.
//
// Failure: each daemon's peering.Maintainer probes its links with
// STATUS round-trips. After the miss threshold the steward commits a
// lost member's crash, then the recovery of its nodes from
// ring-successor replicas. A member that stays reachable but missed a
// record answers the next one with a sequence-gap refusal, and the
// steward heals it inside that commit, still holding the daemon lock
// (repairLocked): the missing records from the bounded apply log, or
// the whole mirror (RESYNC) when the log no longer reaches back or the
// member is ahead of the committed stream. A repair that cannot be
// delivered is retried by the next commit; the steward counts them in
// dlpt_mirror_repairs_total{kind}, a member its refused records in
// dlpt_apply_refusals_total. Not detected yet: silent divergence, the
// same sequence number over a different tree.
//
// Steward failover: every control frame carries the steward epoch
// alongside its sequence number. When members lose the steward link,
// the survivor with the lowest ring id among the unsuspected members
// proposes itself under a bumped epoch; each voter grants at most one
// promise per epoch, and a majority of the known members elects. The
// winner first pulls any records it missed from its most advanced
// voter, then runs the epoch-open barrier — every member adopts the
// new epoch and steward address and reports its last applied sequence
// number, and the same repairLocked brings it into step — and finally
// commits the old steward's crash under the new epoch. Receivers
// refuse control traffic fenced behind their epoch, so a
// paused-then-resumed old steward's late broadcasts bounce; the
// stale-epoch refusals (and the epoch in probed STATUS replies) tell
// it that it was deposed: the commit it was in the middle of stops (a
// join is redirected to the new steward) and it rejoins as a plain
// member under a fresh ring id. Elections need a majority, so a
// two-daemon overlay cannot fail over.
package daemon

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/obs"
	"dlpt/internal/peering"
	"dlpt/internal/persist"
	"dlpt/internal/trace"
	"dlpt/internal/transport"
)

// Daemon is one dlptd process: a single-peer cluster holding a full
// overlay mirror, the control-plane protocol around it, and the link
// maintenance loop.
type Daemon struct {
	cfg           Config
	alpha         *keys.Alphabet
	alphaDigits   string
	placement     lb.Strategy // join placement; nil draws ring ids uniformly
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
	// daemon's candidate loop. applyLog holds the applied records ending
	// at seq; logTailLocked is the bounded tail a repair replays from.
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
		d.placement, d.placementName = strat, strat.Name()
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	// The maintainer exists before the first control frame can arrive:
	// applying a join re-points it, and it probes nothing until Run.
	d.maint = peering.New(peering.Config{
		Probe:         d.probe,
		Interval:      time.Duration(cfg.ProbeEvery),
		MissThreshold: cfg.MissThreshold,
		OnDown:        d.onLinkDown,
		OnUp:          d.onLinkUp,
		Seed:          cfg.Seed,
	})
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
			d.Close() // a member that joined takes its leave
			return nil, err
		}
	}
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
	st := d.Status()
	d.logf("dlptd %s up: peer %s at %s", st.Role, st.ID, st.Addr)
	return d, nil
}

// startMetrics binds the opt-in observability HTTP listener: /metrics
// serves the Prometheus exposition text and /debug/trace the recent
// span trees as JSON.
func (d *Daemon) startMetrics(addr string) error {
	ln, err := d.cfg.Net.Listen(addr)
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
	if stewardAddr == d.selfAddr {
		stewardAddr = "" // a stale view of this daemon's own past
	}
	d.adoptEpochLocked(epoch, stewardAddr)
}

// adoptEpochLocked moves this daemon to epoch — the fencing floor for
// inbound control frames, and never below it the promise floor — under
// the steward at stewardAddr ("" keeps the one known).
func (d *Daemon) adoptEpochLocked(epoch uint64, stewardAddr string) {
	d.epoch = epoch
	d.promised = max(d.promised, epoch)
	d.met.MarkEpoch(epoch)
	if stewardAddr != "" {
		d.stewardAddr = stewardAddr
	}
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
	if id, ok := d.memberAtLocked(addr); ok {
		d.crashPeerLocked(id, addr)
	}
}

// memberAtLocked finds the member advertising addr.
func (d *Daemon) memberAtLocked(addr string) (keys.Key, bool) {
	for id, m := range d.members {
		if m.Addr == addr {
			return id, true
		}
	}
	return "", false
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
	slices.SortFunc(out, func(a, b transport.Member) int { return cmp.Compare(a.ID, b.ID) })
	return out
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
	stewardAddr := d.stewardAddr
	var leave []byte
	if !d.steward {
		leave = transport.Marshal(&transport.LeaveNotice{ID: d.selfID, Addr: d.selfAddr, Epoch: d.epoch})
	}
	d.mu.Unlock()
	if leave != nil {
		es, err := d.ackRoundTrip(5*time.Second, stewardAddr, transport.FrameLeave, leave)
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
