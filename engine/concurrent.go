package engine

import (
	"context"
	"errors"
	"sync/atomic"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/overlay"
)

// DataPath is the part of a cluster that is its own: how a discovery
// and a query stream travel — the stream is an overlay.Stream on every
// cluster, fed by the Source the cluster picks — and how it shuts
// down. Everything else the adapter drives is the overlay.Runtime the
// cluster embeds.
type DataPath interface {
	DiscoverContext(ctx context.Context, key keys.Key) (overlay.Result, error)
	StreamQuery(ctx context.Context, spec core.QuerySpec) (*overlay.Stream, error)
	Stop()
}

// Concurrent adapts a cluster built on the shared overlay runtime to
// the Engine contract. engine/local, engine/live and engine/tcp are
// this adapter over their cluster type; only their constructors differ.
type Concurrent[C DataPath] struct {
	name    string
	alpha   *keys.Alphabet
	cluster C
	rt      *overlay.Runtime

	joins, leaves, crashes, recoveries, balanceMoves atomic.Int64
}

// RuntimeOptions resolves the part of cfg every cluster takes: the
// alphabet (printable ASCII by default) and the shared runtime
// options, with the join placement looked up by name.
func RuntimeOptions(cfg Config) (*keys.Alphabet, overlay.Options, error) {
	alpha := cfg.Alphabet
	if alpha == nil {
		alpha = keys.PrintableASCII
	}
	opts := overlay.Options{
		Gate:    cfg.GateCapacity,
		Persist: cfg.Persist,
		Restore: cfg.Restore,
		Obs:     cfg.Obs,
		Trace:   cfg.Trace,
	}
	if cfg.JoinPlacement != "" {
		strat, err := lb.ByName(cfg.JoinPlacement)
		if err != nil {
			return nil, opts, err
		}
		opts.Placement = strat
	}
	return alpha, opts, nil
}

// NewConcurrent wraps a started cluster and the runtime it embeds.
func NewConcurrent[C DataPath](name string, alpha *keys.Alphabet, cluster C, rt *overlay.Runtime) *Concurrent[C] {
	return &Concurrent[C]{name: name, alpha: alpha, cluster: cluster, rt: rt}
}

// Name identifies the backend.
func (e *Concurrent[C]) Name() string { return e.name }

// Alphabet returns the overlay's key alphabet.
func (e *Concurrent[C]) Alphabet() *keys.Alphabet { return e.alpha }

// Cluster exposes the underlying cluster for callers needing
// runtime-specific operations (listener addresses, pool statistics).
func (e *Concurrent[C]) Cluster() C { return e.cluster }

// mapErr normalizes the runtime's stopped error to ErrClosed.
func mapErr(err error) error {
	if errors.Is(err, overlay.ErrStopped) {
		return ErrClosed
	}
	return err
}

// readable reports why a read cannot start: a cancelled context, or a
// closed engine — the runtime itself still answers reads after Stop.
func (e *Concurrent[C]) readable(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.rt.Stopped() {
		return ErrClosed
	}
	return nil
}

// Register declares key with a value.
func (e *Concurrent[C]) Register(ctx context.Context, key, value string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return mapErr(e.rt.Register(keys.Key(key), value))
}

// RegisterBatch is the runtime's, under one write-lock acquisition.
func (e *Concurrent[C]) RegisterBatch(ctx context.Context, entries []Entry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	kvs := make([]core.KV, len(entries))
	for i, ent := range entries {
		kvs[i] = core.KV{Key: keys.Key(ent.Key), Value: ent.Value}
	}
	return mapErr(e.rt.RegisterBatch(kvs))
}

// Unregister removes value from key.
func (e *Concurrent[C]) Unregister(ctx context.Context, key, value string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	ok, err := e.rt.Unregister(keys.Key(key), value)
	return ok, mapErr(err)
}

// Discover routes a discovery through the cluster's data path. On a
// capacity-gated engine a saturated peer drops the request and
// Discover returns ErrSaturated.
func (e *Concurrent[C]) Discover(ctx context.Context, key string) (Result, error) {
	res, err := e.cluster.DiscoverContext(ctx, keys.Key(key))
	if err != nil {
		return Result{}, mapErr(err)
	}
	out := Result{
		Key:          key,
		Found:        res.Found,
		Values:       res.Values,
		LogicalHops:  res.LogicalHops,
		PhysicalHops: res.PhysicalHops,
	}
	if res.Dropped {
		return out, ErrSaturated
	}
	return out, nil
}

// stream adapts the cluster's stream to the engine contract.
type stream struct{ s *overlay.Stream }

func (s stream) Next() (string, bool) {
	k, ok := s.s.Next()
	return string(k), ok
}

func (s stream) Err() error { return mapErr(s.s.Err()) }

func (s stream) Stats() QueryStats {
	st := s.s.Stats()
	return QueryStats{
		LogicalHops:  st.LogicalHops,
		PhysicalHops: st.PhysicalHops,
		NodesVisited: st.NodesVisited,
	}
}

func (s stream) Close() error { return s.s.Close() }

// Query starts a streaming query on the cluster's data path; closing
// the stream or cancelling ctx halts the traversal.
func (e *Concurrent[C]) Query(ctx context.Context, q Query) (Stream, error) {
	s, err := e.cluster.StreamQuery(ctx, core.QuerySpec{
		Range:  q.Kind == QueryRange,
		Prefix: keys.Key(q.Prefix),
		Lo:     keys.Key(q.Lo),
		Hi:     keys.Key(q.Hi),
		Limit:  q.Limit,
	})
	if err != nil {
		return nil, mapErr(err)
	}
	return stream{s}, nil
}

// Complete resolves automatic completion of a partial search string
// by draining an unlimited Query stream.
func (e *Concurrent[C]) Complete(ctx context.Context, prefix string) (QueryResult, error) {
	return CollectQuery(ctx, e, Query{Kind: QueryComplete, Prefix: prefix})
}

// Range resolves the lexicographic range query [lo, hi] by draining
// an unlimited Query stream.
func (e *Concurrent[C]) Range(ctx context.Context, lo, hi string) (QueryResult, error) {
	return CollectQuery(ctx, e, Query{Kind: QueryRange, Lo: lo, Hi: hi})
}

// AddPeer grows the overlay by one peer.
func (e *Concurrent[C]) AddPeer(ctx context.Context, capacity int) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	id, err := e.rt.AddPeer(capacity)
	if err == nil {
		e.joins.Add(1)
	}
	return string(id), mapErr(err)
}

// RemovePeer removes a peer gracefully; its tree nodes hand off to
// the peers becoming responsible for them.
func (e *Concurrent[C]) RemovePeer(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := e.rt.RemovePeer(keys.Key(id)); err != nil {
		return mapErr(err)
	}
	e.leaves.Add(1)
	return nil
}

// CrashPeer fails a peer abruptly: its node states vanish without
// transfer.
func (e *Concurrent[C]) CrashPeer(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := e.rt.FailPeer(keys.Key(id)); err != nil {
		return mapErr(err)
	}
	e.crashes.Add(1)
	return nil
}

// Recover restores crashed node state from the replica store.
func (e *Concurrent[C]) Recover(ctx context.Context) (RecoveryReport, error) {
	if err := ctx.Err(); err != nil {
		return RecoveryReport{}, err
	}
	restored, lost, err := e.rt.Recover()
	if err != nil {
		return RecoveryReport{}, mapErr(err)
	}
	e.recoveries.Add(1)
	return RecoveryReportFrom(restored, lost), nil
}

// Replicate ships the tree nodes that changed since the last tick.
func (e *Concurrent[C]) Replicate(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n, err := e.rt.Replicate()
	return n, mapErr(err)
}

// Peers lists the live peers in ring order.
func (e *Concurrent[C]) Peers(ctx context.Context) ([]PeerInfo, error) {
	if err := e.readable(ctx); err != nil {
		return nil, err
	}
	return PeerInfosFrom(e.rt.PeerSummaries()), nil
}

// MembershipStats reports the lifecycle and replication counters.
func (e *Concurrent[C]) MembershipStats(ctx context.Context) (MembershipStats, error) {
	if err := e.readable(ctx); err != nil {
		return MembershipStats{}, err
	}
	rep := e.rt.ReplicationStats()
	return MembershipStats{
		Peers:                   e.rt.NumPeers(),
		Joins:                   int(e.joins.Load()),
		Leaves:                  int(e.leaves.Load()),
		Crashes:                 int(e.crashes.Load()),
		Recoveries:              int(e.recoveries.Load()),
		ReplicatedNodes:         rep.SnapshotMsgs,
		RestoredNodes:           rep.RestoredNodes,
		LostNodes:               rep.LostNodes,
		BalanceMoves:            int(e.balanceMoves.Load()),
		ReplicaTransferMsgs:     rep.TransferMsgs,
		ReplicaTransferredNodes: rep.TransferredNodes,
	}, nil
}

// Tick ends the current load-accounting time unit.
func (e *Concurrent[C]) Tick(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return mapErr(e.rt.ResetUnit())
}

// Balance runs one round of the named strategy; the cluster re-keys
// its routing identities across the renames the round applies.
func (e *Concurrent[C]) Balance(ctx context.Context, strategy string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	moves, err := e.rt.Balance(strategy)
	e.balanceMoves.Add(int64(moves))
	return moves, mapErr(err)
}

// Validate cross-checks every overlay invariant.
func (e *Concurrent[C]) Validate(ctx context.Context) error {
	if err := e.readable(ctx); err != nil {
		return err
	}
	return e.rt.Validate()
}

// NumPeers returns the peer count.
func (e *Concurrent[C]) NumPeers() int { return e.rt.NumPeers() }

// NumNodes returns the tree size.
func (e *Concurrent[C]) NumNodes() int { return e.rt.NumNodes() }

// Close stops the cluster. It is idempotent.
func (e *Concurrent[C]) Close() error {
	e.cluster.Stop()
	return nil
}
