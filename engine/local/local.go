// Package local implements the engine.Engine contract over the
// sequential protocol core (internal/core) behind a single mutex: no
// goroutines, no sockets, fully deterministic given a seed. It is the
// cheapest backend for tests, simulations and single-process
// deployments, and the reference the differential tests compare the
// concurrent backends against.
package local

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dlpt/engine"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/persist"
	"dlpt/internal/trie"
)

// Engine is a mutex-serialized sequential overlay.
type Engine struct {
	mu     sync.Mutex
	net    *core.Network  // guarded by mu
	rng    *rand.Rand     // guarded by mu
	place  lb.Strategy    // join placement hook; nil = uniform random
	gated  bool           // enforce peer capacity on discoveries
	store  *persist.Store // durability layer; nil = in-memory only
	closed bool           // guarded by mu

	// membership lifecycle counters, guarded by mu.
	joins, leaves, crashes, recoveries, balanceMoves int // guarded by mu
}

// New starts a local overlay with one peer per capacity entry — or,
// with cfg.Restore, rebuilds one from cfg.Persist's newest snapshot
// and journal.
func New(cfg engine.Config) (*Engine, error) {
	alpha := cfg.Alphabet
	if alpha == nil {
		alpha = keys.PrintableASCII
	}
	if len(cfg.Capacities) == 0 && !cfg.Restore {
		return nil, fmt.Errorf("local: no peers")
	}
	e := &Engine{
		net:   core.NewNetwork(alpha, core.PlacementLexicographic),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		gated: cfg.GateCapacity,
		store: cfg.Persist,
	}
	// Every query walker built over the network inherits the
	// instrumentation; the collectors mirror peer load and replication
	// counters at scrape time under the engine mutex.
	e.net.Obs = cfg.Obs
	e.net.Tracer = cfg.Trace
	overlay.RegisterCollectors(cfg.Obs,
		func() []core.PeerSummary {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.net.PeerSummaries()
		},
		func() core.ReplicationCounters {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.net.Replication
		})
	if cfg.JoinPlacement != "" {
		strat, err := lb.ByName(cfg.JoinPlacement)
		if err != nil {
			return nil, err
		}
		e.place = strat
	}
	if cfg.Restore {
		if e.store == nil {
			return nil, fmt.Errorf("local: restore without a persistence store")
		}
		if err := e.net.RestoreFromStore(e.store, e.rng); err != nil {
			return nil, err
		}
	} else {
		for _, capacity := range cfg.Capacities {
			if _, err := e.addPeerLocked(capacity); err != nil {
				return nil, err
			}
		}
	}
	e.net.AttachJournal(e.store)
	return e, nil
}

// Wrap adapts an already-built network (e.g. one a test drives
// directly) to the engine contract. The caller keeps ownership of the
// network's peer lifecycle.
func Wrap(net *core.Network, seed int64) *Engine {
	return &Engine{net: net, rng: rand.New(rand.NewSource(seed))}
}

// Factory adapts New to the engine.Factory signature.
func Factory(cfg engine.Config) (engine.Engine, error) { return New(cfg) }

// Name identifies the backend.
func (e *Engine) Name() string { return "local" }

// Alphabet returns the overlay's key alphabet.
func (e *Engine) Alphabet() *keys.Alphabet {
	//dlptlint:ignore lockcheck the net pointer and its Alphabet are set once at construction and never reassigned
	return e.net.Alphabet
}

// guard rejects operations on a closed engine or cancelled context.
// Callers must hold e.mu (dlptlint:held mu).
func (e *Engine) guard(ctx context.Context) error {
	if e.closed {
		return engine.ErrClosed
	}
	return ctx.Err()
}

func (e *Engine) addPeerLocked(capacity int) (keys.Key, error) {
	var id keys.Key
	if e.place != nil {
		id = e.place.PlaceJoin(e.net, e.rng, capacity)
	} else {
		for {
			id = e.net.Alphabet.RandomKey(e.rng, 12, 12)
			if _, exists := e.net.Peer(id); !exists {
				break
			}
		}
	}
	if err := e.net.JoinPeer(id, capacity, e.rng); err != nil {
		return "", err
	}
	return id, nil
}

// Register declares key with a value.
func (e *Engine) Register(ctx context.Context, key, value string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return err
	}
	return e.net.InsertData(keys.Key(key), value, e.rng)
}

// RegisterBatch declares every entry under one lock acquisition. The
// context is checked once up front (as on every engine): an accepted
// batch runs to completion, so cancellation cannot leave a partially
// applied prefix.
func (e *Engine) RegisterBatch(ctx context.Context, entries []engine.Entry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return err
	}
	for _, ent := range entries {
		if err := e.net.InsertData(keys.Key(ent.Key), ent.Value, e.rng); err != nil {
			return err
		}
	}
	return nil
}

// Unregister removes value from key.
func (e *Engine) Unregister(ctx context.Context, key, value string) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return false, err
	}
	return e.net.RemoveData(keys.Key(key), value), nil
}

// Discover routes a discovery request entering at a random node. On
// a capacity-gated engine a saturated peer drops the request and
// Discover returns ErrSaturated.
func (e *Engine) Discover(ctx context.Context, key string) (engine.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return engine.Result{}, err
	}
	var began time.Time
	if e.net.Obs != nil || e.net.Tracer.Enabled() {
		began = time.Now()
	}
	root := e.net.Tracer.StartRoot(obs.PhaseDiscover, "")
	root.SetAttr("key", key)
	res := e.net.DiscoverRandom(keys.Key(key), e.gated, e.rng)
	root.End()
	if m := e.net.Obs; m != nil {
		d := time.Since(began)
		m.DiscoverLatency.Observe(d.Seconds())
		m.RecordPhase(obs.PhaseDiscover, res.LogicalHops, d)
		if res.Dropped {
			m.Drops.Inc()
		}
	}
	out := engine.Result{
		Key:          key,
		Found:        res.Satisfied,
		LogicalHops:  res.LogicalHops,
		PhysicalHops: res.PhysicalHops,
	}
	if res.Dropped {
		return out, engine.ErrSaturated
	}
	if res.Satisfied {
		vals, _ := e.net.Values(keys.Key(key))
		sort.Strings(vals)
		out.Values = vals
	}
	return out, nil
}

// localChunkKeys bounds the matches materialized per stream chunk,
// and localChunkVisits the node visits per lock hold of a resumed
// walk.
const (
	localChunkKeys   = 64
	localChunkVisits = 512
)

// stream is a generator over the mutex-serialized walk: every chunk
// resumes the walker under one lock acquisition and the lock is never
// held between Next calls, so a consumer may interleave other engine
// operations (or simply stop) mid-stream; the walker then never
// touches the rest of the tree.
type stream struct {
	e   *Engine
	w   *core.QueryWalker
	ctx context.Context

	buf  []keys.Key
	pos  int
	done bool
	err  error
}

// Next returns the next matching key; ok == false means the stream is
// exhausted (see Err).
func (s *stream) Next() (string, bool) {
	for {
		if s.pos < len(s.buf) {
			k := s.buf[s.pos]
			s.pos++
			return string(k), true
		}
		if s.done {
			return "", false
		}
		if err := s.ctx.Err(); err != nil {
			s.err, s.done = err, true
			return "", false
		}
		s.e.mu.Lock()
		if s.e.closed {
			s.e.mu.Unlock()
			s.err, s.done = engine.ErrClosed, true
			return "", false
		}
		batch, more := s.w.StepN(s.buf[:0], localChunkKeys, localChunkVisits)
		s.e.mu.Unlock()
		s.buf, s.pos = batch, 0
		if !more {
			s.done = true
		}
	}
}

// Err reports the error that terminated the stream early, nil after a
// normal end of stream.
func (s *stream) Err() error { return s.err }

// Stats returns the traversal counters accumulated so far.
func (s *stream) Stats() engine.QueryStats {
	st := s.w.Stats()
	return engine.QueryStats{
		LogicalHops:  st.LogicalHops,
		PhysicalHops: st.PhysicalHops,
		NodesVisited: st.NodesVisited,
	}
}

// Close halts the walk (nothing is in flight between chunks) and
// discards any buffered keys: Next reports end of stream afterwards.
func (s *stream) Close() error {
	s.done = true
	s.buf, s.pos = nil, 0
	return nil
}

// Query starts a streaming query: a generator over the sequential
// walk. The entry point is drawn eagerly (from the same seeded
// stream the slice path consumes); traversal happens lazily, chunk
// by chunk, as the consumer pulls — so a limit or an early exit
// prunes the walk instead of hiding results.
func (e *Engine) Query(ctx context.Context, q engine.Query) (engine.Stream, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return nil, err
	}
	w := core.NewQueryWalker(e.net, core.QuerySpec{
		Range:  q.Kind == engine.QueryRange,
		Prefix: keys.Key(q.Prefix),
		Lo:     keys.Key(q.Lo),
		Hi:     keys.Key(q.Hi),
		Limit:  q.Limit,
	})
	if !w.Empty() {
		if entry, ok := e.net.RandomNodeKey(e.rng); ok {
			w.Start(entry)
		}
	}
	return &stream{e: e, w: w, ctx: ctx}, nil
}

// Complete resolves automatic completion of a partial search string
// by draining an unlimited Query stream.
func (e *Engine) Complete(ctx context.Context, prefix string) (engine.QueryResult, error) {
	return engine.CollectQuery(ctx, e, engine.Query{Kind: engine.QueryComplete, Prefix: prefix})
}

// Range resolves the lexicographic range query [lo, hi] by draining
// an unlimited Query stream.
func (e *Engine) Range(ctx context.Context, lo, hi string) (engine.QueryResult, error) {
	return engine.CollectQuery(ctx, e, engine.Query{Kind: engine.QueryRange, Lo: lo, Hi: hi})
}

// AddPeer grows the overlay by one peer.
func (e *Engine) AddPeer(ctx context.Context, capacity int) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return "", err
	}
	id, err := e.addPeerLocked(capacity)
	if err == nil {
		e.joins++
		e.net.Obs.TopologyEvent("join")
	}
	return string(id), err
}

// RemovePeer removes a peer gracefully, handing its nodes off.
func (e *Engine) RemovePeer(ctx context.Context, id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return err
	}
	if err := e.net.LeavePeer(keys.Key(id)); err != nil {
		return err
	}
	e.leaves++
	e.net.Obs.TopologyEvent("leave")
	return nil
}

// CrashPeer fails a peer abruptly; its node states vanish.
func (e *Engine) CrashPeer(ctx context.Context, id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return err
	}
	if err := e.net.FailPeer(keys.Key(id)); err != nil {
		return err
	}
	e.crashes++
	e.net.Obs.TopologyEvent("crash")
	return nil
}

// Recover restores crashed state from the successor replicas.
func (e *Engine) Recover(ctx context.Context) (engine.RecoveryReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return engine.RecoveryReport{}, err
	}
	restored, lost := e.net.Recover()
	e.recoveries++
	e.net.Obs.TopologyEvent("recover")
	return engine.RecoveryReportFrom(restored, lost), nil
}

// Replicate snapshots every tree node to its host's ring successor
// and, on a durable overlay, writes the fsynced on-disk snapshot. The
// write lock covers only the replication tick, the O(1) catalogue
// capture and the journal rotation; encoding and fsync run after the
// lock is released, so registrations never stall behind the disk.
func (e *Engine) Replicate(ctx context.Context) (int, error) {
	e.mu.Lock()
	if err := e.guard(ctx); err != nil {
		e.mu.Unlock()
		return 0, err
	}
	n := e.net.Replicate()
	commit, err := overlay.BeginSnapshot(e.net, e.store)
	e.mu.Unlock()
	if err != nil {
		return n, err
	}
	return n, commit()
}

// Peers lists the live peers in ring order.
func (e *Engine) Peers(ctx context.Context) ([]engine.PeerInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return nil, err
	}
	return engine.PeerInfosFrom(e.net.PeerSummaries()), nil
}

// MembershipStats reports the lifecycle and replication counters.
func (e *Engine) MembershipStats(ctx context.Context) (engine.MembershipStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return engine.MembershipStats{}, err
	}
	return engine.MembershipStats{
		Peers:                   e.net.NumPeers(),
		Joins:                   e.joins,
		Leaves:                  e.leaves,
		Crashes:                 e.crashes,
		Recoveries:              e.recoveries,
		ReplicatedNodes:         e.net.Replication.SnapshotMsgs,
		RestoredNodes:           e.net.Replication.RestoredNodes,
		LostNodes:               e.net.Replication.LostNodes,
		BalanceMoves:            e.balanceMoves,
		ReplicaTransferMsgs:     e.net.Replication.TransferMsgs,
		ReplicaTransferredNodes: e.net.Replication.TransferredNodes,
	}, nil
}

// Tick ends the current load-accounting time unit.
func (e *Engine) Tick(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return err
	}
	e.net.ResetUnit()
	return nil
}

// Balance runs one round of the named internal/lb strategy.
func (e *Engine) Balance(ctx context.Context, strategy string) (int, error) {
	strat, err := lb.ByName(strategy)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return 0, err
	}
	moves, err := lb.RunRound(e.net, strat)
	e.balanceMoves += moves
	e.net.Obs.TopologyEvent("balance")
	return moves, err
}

// Snapshot returns a consistent copy of the whole tree.
func (e *Engine) Snapshot(ctx context.Context) (*trie.Tree, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return nil, err
	}
	return e.net.TreeSnapshot(), nil
}

// Validate cross-checks every overlay invariant.
func (e *Engine) Validate(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.guard(ctx); err != nil {
		return err
	}
	return e.net.Validate()
}

// NumPeers returns the peer count.
func (e *Engine) NumPeers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.net.NumPeers()
}

// NumNodes returns the tree size.
func (e *Engine) NumNodes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.net.NumNodes()
}

// Close marks the engine closed. It is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}

// Compile-time conformance check.
var _ engine.Engine = (*Engine)(nil)
