// Package overlay is the one runtime behind all three engines. The
// paper's protocol — the Section 2 climb/descend step, peer join and
// leave, successor replication and load-balancing renames — is written
// here once, over one locked core.Network; engine/local, internal/live
// and internal/transport embed a Runtime and add only how things
// travel: a hop, its answer and a replica batch (a call into the
// sequential core, a channel send, a pooled framed socket). The routed
// request itself — the hop, the driver that takes it through a peer,
// the originator that waits for the answer and re-issues what was lost
// — is route.go, shared by the two clusters that route. A subtree query
// is one pull-based Stream (stream.go) over a Source: in process, the
// walk under the read lock; on sockets, the same walk on the serving
// peer (WalkFrom) and, on the client, the frames it arrives in.
//
// What differs between them goes through the six-method Link:
// membership changes and replication ticks, and, once per physical hop,
// the send that moves a request to the next peer or its answer to the
// caller. The per-node transition never does: it takes Mu and reads Net
// directly.
package overlay

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/obs"
	"dlpt/internal/persist"
	"dlpt/internal/trace"
)

// ErrStopped is returned by operations on a stopped cluster.
var ErrStopped = errors.New("overlay: cluster stopped")

// MaxRedirects bounds how often one request is passed on for a node
// the addressed peer does not host. A move (churn, balancing) resolves
// in a hop or two; a node lost to an unrecovered crash has no host and
// would be passed on forever, so past the bound the walk reports not
// found. Giving up early reads as a false "not found", hence the slack.
const MaxRedirects = 8

// Result is the outcome of a routed discovery.
type Result struct {
	Key   keys.Key
	Found bool
	// Values holds the registered values in lexicographic order.
	Values       []string
	LogicalHops  int
	PhysicalHops int
	// Dropped reports that a saturated peer ignored the request
	// (capacity gating).
	Dropped bool
}

// Options are the construction parameters every runtime accepts.
type Options struct {
	// Placement picks ring identifiers for joining peers; nil draws
	// uniformly random identifiers.
	Placement lb.Strategy
	// Gate enforces per-peer capacity on the discovery path: every
	// visit consumes capacity and saturated peers drop requests.
	Gate bool
	// Persist, when non-nil, makes the cluster durable: catalogue
	// mutations append to the journal, and Replicate fsyncs it or
	// writes a snapshot image.
	Persist *persist.Store
	// Restore rebuilds the overlay from Persist instead of starting
	// fresh from the capacities (which are then ignored).
	Restore bool
	// Obs, when non-nil, receives visit/drop counters, per-phase hop
	// latencies and replication marks, and scrape-time collectors
	// mirror the peer-load and replication state into its registry.
	Obs *obs.Metrics
	// Trace, when non-nil, records per-hop spans for every routed
	// traversal and replication tick.
	Trace *trace.Recorder
}

// Link is what a cluster owes the shared runtime: the per-peer endpoint
// (a goroutine and its mailbox, a listener and its address) and the way
// a replica batch, a hop and an answer reach one. PeerUp, PeerDown,
// Rename and Ship are called on membership changes and replication
// ticks; Send or Reply once per physical hop — one dynamic call where a
// request leaves a peer, never per tree node. Hop and Reply travel by
// value: a pointer handed to an interface escapes, and a routed hop
// allocates nothing the wire does not make it.
type Link interface {
	// PeerUp brings up the endpoint of a peer about to enter the ring.
	// The caller holds Mu, so the endpoint becomes routable atomically
	// with the peer's membership. An error leaves nothing behind.
	PeerUp(id keys.Key) error
	// PeerDown retires the endpoint of a peer that left the ring or
	// never made it in. Called without Mu; a no-op for an id that has
	// no endpoint here.
	PeerDown(id keys.Key)
	// Rename re-keys the endpoint serving from to serve to, after a
	// balancing round renamed the peer. The caller holds Mu.
	Rename(from, to keys.Key)
	// Ship delivers one successor batch to the peer that must hold it
	// and returns the number of snapshots installed there. On an error
	// the runtime installs the batch directly.
	Ship(tc trace.Context, b core.ReplicaBatch) (int, error)
	// Send passes h one way to peer to's endpoint, which runs ServeHop
	// on it; nothing comes back. It must not wait on the peer it is
	// called from, which may be the one it sends to. An error means the
	// hop went nowhere: the driver answers Retry, the originator
	// re-issues. ctx bounds a link that dials.
	Send(ctx context.Context, to keys.Key, h Hop) error
	// Reply delivers the answer that ends h to its originator, whose
	// end of the link hands it to Complete under h.Origin.
	Reply(h Hop, rep Reply) error
}

// Runtime is the state and the protocol every cluster shares.
// The exported fields are what their data paths read; everything else
// goes through the methods.
type Runtime struct {
	Mu  sync.RWMutex
	Net *core.Network // guarded by Mu
	// Rng belongs to writers under Mu.Lock; a data path that draws from
	// it holding only Mu.RLock orders its readers with a lock of its
	// own.
	Rng   *rand.Rand      // guarded by Mu
	Met   *obs.Metrics    // nil disables metrics
	Rec   *trace.Recorder // nil disables span recording
	Store *persist.Store  // durability layer; nil = in-memory only
	Gate  bool            // enforce peer capacity on discoveries
	// ClientHops is what a discovery has cost when its entry node sees
	// it: 1 where the caller's request crosses a wire to get there, 0 in
	// process. The embedding cluster sets it before Attach.
	ClientHops int
	// Quit is closed by Halt; every blocking wait selects on it.
	Quit chan struct{}

	// entryRng is where entry nodes are drawn from: Rng (readers hold
	// Mu.RLock and entryMu, writers Mu.Lock) unless SeedEntries gave
	// the draws a stream of their own.
	entryMu  sync.Mutex
	entryRng *rand.Rand // guarded by entryMu

	// tickMu serialises replication ticks: a tick installs every batch
	// it planned before the next one plans, so no batch of an older plan
	// can overwrite a newer snapshot.
	tickMu sync.Mutex

	// The originator's side of the routed path (route.go): calls
	// awaiting their direct reply by id, and the sweeper's clock that
	// ages them.
	pmu      sync.Mutex
	pending  map[uint64]*pendingCall // guarded by pmu
	lastCall uint64                  // guarded by pmu
	tick     uint64                  // guarded by pmu

	link    Link
	place   lb.Strategy // join placement hook; nil = uniform random
	restore bool
	halt    sync.Once
}

// Init prepares an empty overlay. The embedding cluster then starts
// whatever its endpoints need (Quit exists from here on) and calls
// Attach.
//
// dlptlint:exclusive — the runtime is under construction and has not
// escaped.
func (r *Runtime) Init(alpha *keys.Alphabet, seed int64, opts Options) {
	r.Adopt(core.NewNetwork(alpha, core.PlacementLexicographic), seed, opts)
}

// Adopt is Init over a network the caller built (engine/local's Wrap).
// The caller keeps the network's peer lifecycle and calls Attach with
// no capacities.
//
// dlptlint:exclusive — as Init.
func (r *Runtime) Adopt(net *core.Network, seed int64, opts Options) {
	r.Net = net
	r.Rng = rand.New(rand.NewSource(seed))
	r.entryRng = r.Rng
	r.pending = make(map[uint64]*pendingCall)
	r.Met, r.Rec, r.Store = opts.Obs, opts.Trace, opts.Persist
	r.place, r.Gate, r.restore = opts.Placement, opts.Gate, opts.Restore
	r.Quit = make(chan struct{})
	// The network inherits the instrumentation so every query walker
	// built over it records phase spans and counters.
	r.Net.Obs, r.Net.Tracer = r.Met, r.Rec
	r.registerCollectors()
}

// SeedEntries takes the entry draws off Rng onto a generator of their
// own, so the cluster's writes do not shift the entry sequence. Call
// between Init and Attach.
//
// dlptlint:exclusive — as Init.
func (r *Runtime) SeedEntries(seed int64) {
	r.entryRng = rand.New(rand.NewSource(seed))
}

// Attach wires the link and populates the ring through it: one join
// per capacity entry, or with Options.Restore the persisted ring. On
// an error the caller stops the cluster, which tears down the
// endpoints already up.
func (r *Runtime) Attach(link Link, capacities []int) error {
	r.link = link
	if r.restore {
		if r.Store == nil {
			return errors.New("overlay: restore without a persistence store")
		}
		r.Mu.Lock()
		err := r.Net.RestoreFromStore(r.Store, r.Rng)
		if err == nil {
			for _, id := range r.Net.PeerIDs() {
				if err = link.PeerUp(id); err != nil {
					break
				}
			}
		}
		r.Mu.Unlock()
		if err != nil {
			return err
		}
	} else {
		for _, capacity := range capacities {
			if _, err := r.AddPeer(capacity); err != nil {
				return err
			}
		}
	}
	// Callers of the mutation paths hold Mu, serializing appends.
	r.Mu.Lock()
	r.Net.AttachJournal(r.Store)
	r.Mu.Unlock()
	return nil
}

// registerCollectors mirrors state the hot paths do not instrument
// into the registry at scrape time: the per-peer visit load and node
// gauges (replaced wholesale, so balance renames never leave stale
// series) and the core's never-reset replication counters (mirrored
// with Set, so they stay monotonic across crash/recover and Balance).
func (r *Runtime) registerCollectors() {
	m := r.Met
	if m == nil {
		return
	}
	m.Registry.OnScrape(func() {
		sums := r.PeerSummaries()
		loads := make(map[string]float64, len(sums))
		nodes := make(map[string]float64, len(sums))
		for _, s := range sums {
			loads[string(s.ID)] = float64(s.LoadPrev)
			nodes[string(s.ID)] = float64(s.Nodes)
		}
		m.Registry.ReplaceGauges(obs.SeriesVisitLoad,
			"Discovery visits received per peer in the last load unit.", "peer", loads)
		m.Registry.ReplaceGauges(obs.SeriesPeerNodes,
			"Tree nodes hosted per peer.", "peer", nodes)
		rs := r.ReplicationStats()
		m.ReplicaSnapshotMsgs.Set(float64(rs.SnapshotMsgs))
		m.ReplicaTransferMsgs.Set(float64(rs.TransferMsgs))
		m.ReplicaTransferNodes.Set(float64(rs.TransferredNodes))
	})
}

// Halt closes Quit and reports whether this call did; the embedding
// cluster's Stop tears its endpoints down on true and then waits for
// its goroutines either way.
func (r *Runtime) Halt() (first bool) {
	r.halt.Do(func() {
		close(r.Quit)
		first = true
	})
	return first
}

// Stopped reports whether the cluster has been stopped.
func (r *Runtime) Stopped() bool {
	select {
	case <-r.Quit:
		return true
	default:
		return false
	}
}

// AddPeer joins one peer with the given capacity and returns its id:
// draw a ring id, bring the peer's endpoint up through the link, join
// the ring — in that order, so a peer whose endpoint cannot come up
// never enters the ring (every walk through its nodes would fail).
func (r *Runtime) AddPeer(capacity int) (keys.Key, error) {
	if r.Stopped() {
		return "", ErrStopped
	}
	r.Mu.Lock()
	id := r.drawJoinIDLocked(capacity)
	if err := r.link.PeerUp(id); err != nil {
		r.Mu.Unlock()
		return "", err
	}
	err := r.Net.JoinPeer(id, capacity, r.Rng)
	r.Mu.Unlock()
	if err != nil {
		r.link.PeerDown(id)
		return "", err
	}
	r.Met.TopologyEvent("join")
	return id, nil
}

// DrawJoinID draws the ring id AddPeer would give the next joiner —
// the placement policy's choice, or a uniformly random unused id —
// without joining anyone. The daemon's steward draws here and then
// commits the join through the same record its members replay, so a
// seed replays the same ids either way.
func (r *Runtime) DrawJoinID(capacity int) keys.Key {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	return r.drawJoinIDLocked(capacity)
}

func (r *Runtime) drawJoinIDLocked(capacity int) keys.Key {
	if r.place != nil {
		return r.place.PlaceJoin(r.Net, r.Rng, capacity)
	}
	for {
		id := r.Net.Alphabet.RandomKey(r.Rng, 12, 12)
		if _, exists := r.Net.Peer(id); !exists {
			return id
		}
	}
}

// RemovePeer removes a peer gracefully: its tree nodes hand off to the
// peers becoming responsible for them, then its endpoint retires.
// Traffic still addressed to it re-resolves through the per-hop HostOf
// lookups.
func (r *Runtime) RemovePeer(id keys.Key) error {
	return r.depart(id, "leave", (*core.Network).LeavePeer)
}

// FailPeer crashes a peer: its node states vanish without transfer and
// its endpoint retires. The tree stays degraded until Recover runs.
func (r *Runtime) FailPeer(id keys.Key) error {
	return r.depart(id, "crash", (*core.Network).FailPeer)
}

func (r *Runtime) depart(id keys.Key, event string, leave func(*core.Network, keys.Key) error) error {
	if r.Stopped() {
		return ErrStopped
	}
	r.Mu.Lock()
	err := leave(r.Net, id)
	r.Mu.Unlock()
	if err != nil {
		return err
	}
	r.link.PeerDown(id)
	r.Met.TopologyEvent(event)
	return nil
}

// Recover restores crashed node state from the successor replicas and
// rebuilds the canonical tree structure.
func (r *Runtime) Recover() (restored int, lost []keys.Key, err error) {
	if r.Stopped() {
		return 0, nil, ErrStopped
	}
	r.Mu.Lock()
	defer r.Mu.Unlock()
	restored, lost = r.Net.Recover()
	r.Met.TopologyEvent("recover")
	return restored, lost, nil
}

// Replicate snapshots every tree node that changed since the last tick
// to its host's ring successor. Each batch travels the link — the
// runtime's real per-peer path — while discoveries keep flowing; a
// batch the link cannot deliver (departed target, racing endpoint
// close) is installed directly, which re-routes per entry. Delivery is
// at-least-once: a link that fails after the far side installed the
// batch makes the fallback re-install it idempotently, and the snapshot
// counters count it twice. On a durable cluster the tick ends with its
// durability point: the fsynced journal, or a new on-disk image where
// the journal cannot carry the tick. Ticks run one at a time.
func (r *Runtime) Replicate() (int, error) {
	if r.Stopped() {
		return 0, ErrStopped
	}
	r.tickMu.Lock()
	defer r.tickMu.Unlock()
	r.Mu.Lock()
	plan := r.Net.ReplicaPlan()
	r.Mu.Unlock()
	tick := r.Rec.StartRoot("replicate", "")
	total := 0
	for _, b := range plan {
		span := r.Rec.Start(tick.Context(), "replica", string(b.To))
		span.SetAttr("snapshots", strconv.Itoa(len(b.Infos)))
		n, err := r.link.Ship(span.Context(), b)
		if err != nil {
			n = r.InstallReplicas(b)
		}
		span.End()
		total += n
	}
	tick.SetAttr("batches", strconv.Itoa(len(plan)))
	tick.SetAttr("snapshots", strconv.Itoa(total))
	tick.End()
	r.Mu.Lock()
	r.Net.CompactReplicas()
	commit, err := r.beginSnapshotLocked()
	r.Mu.Unlock()
	if err != nil {
		return total, err
	}
	return total, commit()
}

// ReplicateLocal runs one replication tick under a single hold of the
// write lock, bypassing the link: core.Network.Replicate (plan, install,
// compact) and, on a durable cluster, the durability point. The daemon
// deployment calls this on every process: each holds a full mirror, so
// shipping batches to peers that already have identical state would be
// pure overhead.
func (r *Runtime) ReplicateLocal() (int, error) {
	if r.Stopped() {
		return 0, ErrStopped
	}
	r.tickMu.Lock()
	defer r.tickMu.Unlock()
	r.Mu.Lock()
	n := r.Net.Replicate()
	commit, err := r.beginSnapshotLocked()
	r.Mu.Unlock()
	if err != nil {
		return n, err
	}
	return n, commit()
}

// InstallReplicas installs one successor batch under the write lock
// and returns the number of snapshots installed: the receiving end of
// every link, and Replicate's fallback for a batch no link delivered.
func (r *Runtime) InstallReplicas(b core.ReplicaBatch) int {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	return r.Net.AcceptReplicas(b)
}

// beginSnapshotLocked is the tail of a replication tick on a durable
// overlay. Where the journal can carry the tick — every catalogue change
// since the last snapshot went through it (a lossy Recover, a restore or
// a mirror install did not), and persist.Store.JournalCarries holds —
// commit just fsyncs the journal. Otherwise the tick writes a new image:
// under Mu's write side it captures the ring and rotates the journal,
// and commit folds the previous image with the rotated journal, encodes
// and fsyncs after the lock is released. Only where the store cannot
// fold, or the catalogue changed outside the journal, is the catalogue
// built from the tree under the lock. commit also stamps the tick as
// completed, with or without a store.
func (r *Runtime) beginSnapshotLocked() (commit func() error, err error) {
	met, store := r.Met, r.Store
	if store == nil {
		return func() error { met.MarkReplicated(); return nil }, nil
	}
	if r.Net.CatalogueJournaled() && store.JournalCarries(r.Net.RingState()) {
		return func() error {
			if err := store.SyncJournal(); err != nil {
				return err
			}
			met.MarkReplicated()
			return nil
		}, nil
	}
	start := time.Now()
	peers := r.Net.RingState()
	pending, err := store.BeginSnapshot()
	if err != nil {
		return nil, err
	}
	cat := r.Net.CaptureSnapshot(pending.Folds()) // nil: Commit folds
	stall := time.Since(start)
	return func() error {
		if _, err := pending.Commit(peers, cat); err != nil {
			return err
		}
		met.MarkSnapshot(stall, pending.Bytes(), pending.Keys())
		met.MarkReplicated()
		return nil
	}, nil
}

// ResetUnit ends the current load-accounting time unit.
func (r *Runtime) ResetUnit() error {
	if r.Stopped() {
		return ErrStopped
	}
	r.Mu.Lock()
	defer r.Mu.Unlock()
	r.Net.ResetUnit()
	return nil
}

// Balance runs one round of the named load-balancing strategy over
// every peer, then re-keys the link's endpoints to the renamed peer
// ids so routing keeps resolving.
func (r *Runtime) Balance(strategy string) (int, error) {
	strat, err := lb.ByName(strategy)
	if err != nil {
		return 0, err
	}
	if r.Stopped() {
		return 0, ErrStopped
	}
	r.Mu.Lock()
	defer r.Mu.Unlock()
	before := r.Net.PeerIDs()
	moves, rerr := lb.RunRound(r.Net, strat)
	r.rewireLocked(before)
	r.Met.TopologyEvent("balance")
	return moves, rerr
}

// rewireLocked pairs the ring ids a balancing round retired with the
// ids it introduced and has the link re-key one endpoint per pair.
// Which endpoint serves which id is immaterial — all state lives in
// the shared network — so the pairing is by sorted order. A rename
// keeps the peer count, so both lists have the same length.
func (r *Runtime) rewireLocked(before []keys.Key) {
	after := r.Net.PeerIDs()
	var retired, introduced []keys.Key
	for i, j := 0, 0; i < len(before) || j < len(after); {
		switch {
		case j == len(after) || i < len(before) && before[i] < after[j]:
			retired = append(retired, before[i])
			i++
		case i == len(before) || after[j] < before[i]:
			introduced = append(introduced, after[j])
			j++
		default:
			i++
			j++
		}
	}
	for i, from := range retired {
		r.link.Rename(from, introduced[i])
	}
}

// Register declares a service key with a value.
func (r *Runtime) Register(key keys.Key, value string) error {
	if r.Stopped() {
		return ErrStopped
	}
	r.Mu.Lock()
	defer r.Mu.Unlock()
	return r.Net.InsertData(key, value, r.Rng)
}

// RegisterBatch declares every entry under one write-lock acquisition,
// stopping at the first failure; into an overlay with no node it is
// core.InsertBatch's sorted pass (per-key state, a Host message a node).
func (r *Runtime) RegisterBatch(entries []core.KV) error {
	if r.Stopped() {
		return ErrStopped
	}
	r.Mu.Lock()
	defer r.Mu.Unlock()
	return r.Net.InsertBatch(entries, r.Rng)
}

// Unregister removes a value from a key, reporting whether it was
// registered. A stopped cluster refuses, like every other mutation:
// its owner may already have closed the store the journal appends to.
func (r *Runtime) Unregister(key keys.Key, value string) (bool, error) {
	if r.Stopped() {
		return false, ErrStopped
	}
	r.Mu.Lock()
	defer r.Mu.Unlock()
	return r.Net.RemoveData(key, value), nil
}

// PeerSummaries returns one summary per peer in ring order.
func (r *Runtime) PeerSummaries() []core.PeerSummary {
	r.Mu.RLock()
	defer r.Mu.RUnlock()
	return r.Net.PeerSummaries()
}

// ReplicationStats returns the replication traffic counters.
func (r *Runtime) ReplicationStats() core.ReplicationCounters {
	r.Mu.RLock()
	defer r.Mu.RUnlock()
	return r.Net.Replication
}

// NumPeers returns the current peer count.
func (r *Runtime) NumPeers() int {
	r.Mu.RLock()
	defer r.Mu.RUnlock()
	return r.Net.NumPeers()
}

// NumNodes returns the current tree size.
func (r *Runtime) NumNodes() int {
	r.Mu.RLock()
	defer r.Mu.RUnlock()
	return r.Net.NumNodes()
}

// Validate cross-checks all overlay invariants.
func (r *Runtime) Validate() error {
	r.Mu.RLock()
	defer r.Mu.RUnlock()
	return r.Net.Validate()
}
