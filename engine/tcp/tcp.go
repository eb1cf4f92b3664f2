// Package tcp adapts the socket transport (internal/transport) to the
// engine.Engine contract: every peer owns a loopback TCP listener and
// discoveries hop peer-to-peer as length-prefixed binary frames
// multiplexed over persistent pooled connections: forwarded one way,
// answered straight to the caller. Cancelling a discovery context
// withdraws the caller's pending entry and returns at once; hops hold
// nothing to free and the shared connections survive.
package tcp

import (
	"context"
	"errors"
	"sort"

	"dlpt/engine"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	itransport "dlpt/internal/transport"
	"dlpt/internal/trie"
)

// Engine wraps a running TCP cluster. The membership half of the
// contract (RemovePeer, CrashPeer, Recover, Replicate, Peers,
// MembershipStats, Tick, Balance) comes from the embedded adapter:
// the cluster closes departed listeners and rewires its address table
// across balancing renames.
type Engine struct {
	*engine.Membership
	cluster *itransport.Cluster
	alpha   *keys.Alphabet
}

// New starts a TCP-backed overlay with one listener per capacity
// entry, bound to cfg.Bind (127.0.0.1 ephemeral ports by default).
func New(cfg engine.Config) (*Engine, error) {
	alpha := cfg.Alphabet
	if alpha == nil {
		alpha = keys.PrintableASCII
	}
	var opts itransport.Options
	if cfg.JoinPlacement != "" {
		strat, err := lb.ByName(cfg.JoinPlacement)
		if err != nil {
			return nil, err
		}
		opts.Placement = strat
	}
	opts.Gate = cfg.GateCapacity
	opts.Persist = cfg.Persist
	opts.Restore = cfg.Restore
	opts.Bind = cfg.Bind
	opts.AdvertiseHost = cfg.AdvertiseHost
	opts.Obs = cfg.Obs
	opts.Trace = cfg.Trace
	c, err := itransport.StartOpts(alpha, cfg.Capacities, cfg.Seed, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{
		Membership: engine.NewMembership(c, mapErr),
		cluster:    c,
		alpha:      alpha,
	}, nil
}

// Factory adapts New to the engine.Factory signature.
func Factory(cfg engine.Config) (engine.Engine, error) { return New(cfg) }

// Name identifies the backend.
func (e *Engine) Name() string { return "tcp" }

// Alphabet returns the overlay's key alphabet.
func (e *Engine) Alphabet() *keys.Alphabet { return e.alpha }

// mapErr normalizes the cluster's stopped error to engine.ErrClosed.
func mapErr(err error) error {
	if errors.Is(err, itransport.ErrStopped) {
		return engine.ErrClosed
	}
	return err
}

// Register declares key with a value.
func (e *Engine) Register(ctx context.Context, key, value string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return mapErr(e.cluster.Register(keys.Key(key), value))
}

// RegisterBatch declares every entry under one write-lock
// acquisition.
func (e *Engine) RegisterBatch(ctx context.Context, entries []engine.Entry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	kvs := make([]core.KV, len(entries))
	for i, ent := range entries {
		kvs[i] = core.KV{Key: keys.Key(ent.Key), Value: ent.Value}
	}
	return mapErr(e.cluster.RegisterBatch(kvs))
}

// Unregister removes value from key.
func (e *Engine) Unregister(ctx context.Context, key, value string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if e.cluster.Stopped() {
		return false, engine.ErrClosed
	}
	return e.cluster.Unregister(keys.Key(key), value), nil
}

// Discover routes a discovery over TCP. On a capacity-gated engine a
// saturated peer drops the request and Discover returns ErrSaturated.
func (e *Engine) Discover(ctx context.Context, key string) (engine.Result, error) {
	res, err := e.cluster.DiscoverContext(ctx, keys.Key(key))
	if err != nil {
		return engine.Result{}, mapErr(err)
	}
	out := engine.Result{
		Key:          key,
		Found:        res.Found,
		LogicalHops:  res.LogicalHops,
		PhysicalHops: res.PhysicalHops,
	}
	if res.Dropped {
		return out, engine.ErrSaturated
	}
	if res.Found {
		out.Values = append([]string(nil), res.Values...)
		sort.Strings(out.Values)
	}
	return out, nil
}

// stream adapts the cluster's WireStream to the engine contract.
type stream struct {
	s *itransport.WireStream
}

func (s stream) Next() (string, bool) {
	k, ok := s.s.Next()
	return string(k), ok
}

func (s stream) Err() error { return mapErr(s.s.Err()) }

func (s stream) Stats() engine.QueryStats {
	st := s.s.Stats()
	return engine.QueryStats{
		LogicalHops:  st.LogicalHops,
		PhysicalHops: st.PhysicalHops,
		NodesVisited: st.NodesVisited,
	}
}

func (s stream) Close() error { return s.s.Close() }

// Query starts a streaming query over the wire: the traversal runs at
// the entry node's host and partial result batches flow back as
// STREAM frames multiplexed over the pooled connection; closing the
// stream early sends a CANCEL frame that halts the server-side walk
// while the shared connection survives.
func (e *Engine) Query(ctx context.Context, q engine.Query) (engine.Stream, error) {
	s, err := e.cluster.StreamQuery(ctx, core.QuerySpec{
		Range:  q.Kind == engine.QueryRange,
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
func (e *Engine) Complete(ctx context.Context, prefix string) (engine.QueryResult, error) {
	return engine.CollectQuery(ctx, e, engine.Query{Kind: engine.QueryComplete, Prefix: prefix})
}

// Range resolves the lexicographic range query [lo, hi] by draining
// an unlimited Query stream.
func (e *Engine) Range(ctx context.Context, lo, hi string) (engine.QueryResult, error) {
	return engine.CollectQuery(ctx, e, engine.Query{Kind: engine.QueryRange, Lo: lo, Hi: hi})
}

// AddPeer grows the overlay by one peer and listener.
func (e *Engine) AddPeer(ctx context.Context, capacity int) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	id, err := e.cluster.AddPeer(capacity)
	if err == nil {
		e.CountJoin()
	}
	return string(id), mapErr(err)
}

// Snapshot returns a consistent copy of the whole tree.
func (e *Engine) Snapshot(ctx context.Context) (*trie.Tree, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.cluster.Stopped() {
		return nil, engine.ErrClosed
	}
	return e.cluster.Snapshot(), nil
}

// Validate cross-checks every overlay invariant.
func (e *Engine) Validate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.cluster.Stopped() {
		return engine.ErrClosed
	}
	return e.cluster.Validate()
}

// NumPeers returns the peer count.
func (e *Engine) NumPeers() int { return e.cluster.NumPeers() }

// NumNodes returns the tree size.
func (e *Engine) NumNodes() int { return e.cluster.NumNodes() }

// Close shuts every listener down. It is idempotent.
func (e *Engine) Close() error {
	e.cluster.Stop()
	return nil
}

// Cluster exposes the underlying transport for callers needing
// socket-level details (listener addresses).
func (e *Engine) Cluster() *itransport.Cluster { return e.cluster }

// Compile-time conformance check.
var _ engine.Engine = (*Engine)(nil)
