// Package engine defines the pluggable execution-engine contract of
// the DLPT library: one interface every deployment shape of the
// paper's protocol implements, so the public Registry and Directory
// APIs, the examples and the benchmarks all run unchanged over any
// backend.
//
// Three first-class implementations ship with the module:
//
//   - engine/local — the sequential protocol core behind the runtime's
//     lock; deterministic, no goroutines, the shape of the paper's
//     simulator and the reference the differential tests compare
//     against.
//   - engine/live  — one goroutine per peer with channel mailboxes and
//     hop-by-hop concurrent discovery routing (the default backend).
//   - engine/tcp   — every peer owns a loopback TCP listener and
//     discoveries hop peer-to-peer as binary frames multiplexed over
//     persistent pooled connections.
//
// All three are one runtime (internal/overlay) behind one adapter
// (Concurrent, in concurrent.go), and every query is one
// overlay.Stream; they differ in how a hop, a replica batch and a
// stream's batches travel, and in nothing this package sees beyond
// their constructors.
//
// Every operation takes a context.Context; cancelling it aborts
// in-flight routed traversals and returns the context error.
package engine

import (
	"context"
	"errors"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/persist"
	"dlpt/internal/trace"
)

// ErrClosed is returned by every operation on a closed engine.
var ErrClosed = errors.New("dlpt: engine closed")

// ErrSaturated is returned by Discover on a capacity-gated engine
// (Config.GateCapacity) when a peer on the routing path has exhausted
// its per-time-unit capacity and dropped the request — Section 4's
// request model. Tick starts a fresh unit and clears the saturation.
var ErrSaturated = errors.New("dlpt: peer saturated")

// Entry is one (key, value) registration, the unit of RegisterBatch.
type Entry struct {
	Key   string
	Value string
}

// Result is the outcome of a routed discovery.
type Result struct {
	Key   string
	Found bool
	// Values holds the registered values in lexicographic order.
	Values []string
	// LogicalHops counts tree edges traversed; PhysicalHops the subset
	// crossing peer boundaries (wire transfers on networked engines).
	LogicalHops  int
	PhysicalHops int
}

// QueryResult is the outcome of a routed multi-key query (automatic
// completion or lexicographic range).
type QueryResult struct {
	// Keys are the matching declared keys in lexicographic order.
	Keys         []string
	LogicalHops  int
	PhysicalHops int
}

// QueryKind selects the traversal of a streaming query.
type QueryKind int

const (
	// QueryComplete resolves automatic completion of a partial search
	// string: every declared key extending Prefix.
	QueryComplete QueryKind = iota
	// QueryRange resolves the lexicographic range query [Lo, Hi].
	QueryRange
)

// Query describes one streaming multi-key query. Limit is pushed
// down into the tree traversal: the walk stops as soon as Limit
// matches have been yielded instead of collecting everything and
// truncating at the top. Limit <= 0 means unlimited.
type Query struct {
	Kind   QueryKind
	Prefix string // QueryComplete
	Lo, Hi string // QueryRange
	Limit  int
}

// QueryStats reports the routing cost a stream has accumulated so
// far; after the stream is exhausted they are the query's totals.
type QueryStats struct {
	// LogicalHops counts tree edges traversed; PhysicalHops the
	// subset crossing peer boundaries.
	LogicalHops  int
	PhysicalHops int
	// NodesVisited counts tree nodes touched by the traversal — the
	// direct measure of limit pushdown (a limited stream visits a
	// fraction of the nodes the full walk would).
	NodesVisited int
}

// Stream yields the matches of one Query in lexicographic order as
// the tree traversal discovers them. Streams are not safe for
// concurrent use. Close releases the stream's resources and halts
// the underlying traversal; it is idempotent and must be called
// (the public iterator wrappers do so on every exit path).
type Stream interface {
	// Next returns the next matching key. ok == false means the
	// stream is exhausted — normally, on error, or after Close; Err
	// disambiguates.
	Next() (key string, ok bool)
	// Err reports the error that terminated the stream early, nil
	// after a normal end of stream.
	Err() error
	// Stats reports the traversal cost accumulated so far.
	Stats() QueryStats
	// Close halts the traversal and releases the stream.
	Close() error
}

// Querier is the streaming-query surface of an engine; CollectQuery
// only needs this slice of the contract.
type Querier interface {
	Query(ctx context.Context, q Query) (Stream, error)
}

// CollectQuery drains e.Query(ctx, q) into a QueryResult — the slice
// path every engine's Complete and Range are thin wrappers over, so
// old and new paths cannot diverge.
func CollectQuery(ctx context.Context, e Querier, q Query) (QueryResult, error) {
	s, err := e.Query(ctx, q)
	if err != nil {
		return QueryResult{}, err
	}
	defer s.Close()
	var ks []string
	for {
		k, ok := s.Next()
		if !ok {
			break
		}
		ks = append(ks, k)
	}
	if err := s.Err(); err != nil {
		return QueryResult{}, err
	}
	st := s.Stats()
	return QueryResult{Keys: ks, LogicalHops: st.LogicalHops, PhysicalHops: st.PhysicalHops}, nil
}

// PeerInfo is a read-only view of one live peer.
type PeerInfo struct {
	// ID is the peer's ring identifier.
	ID string
	// Capacity is the peer's per-time-unit processing capacity.
	Capacity int
	// Nodes is the number of tree nodes the peer currently runs.
	Nodes int
	// Load is the peer's aggregate load of the previous time unit
	// (the input of the MLT balancing heuristic).
	Load int
}

// MembershipStats aggregates the peer-lifecycle and replication
// counters of one engine since construction.
type MembershipStats struct {
	// Peers is the current peer count.
	Peers int
	// Joins counts peers added through AddPeer after construction.
	Joins int
	// Leaves counts graceful departures (RemovePeer).
	Leaves int
	// Crashes counts abrupt failures (CrashPeer).
	Crashes int
	// Recoveries counts Recover calls.
	Recoveries int
	// ReplicatedNodes counts node snapshots shipped by Replicate
	// (the nodes each tick found changed), cumulatively.
	ReplicatedNodes int
	// RestoredNodes counts nodes reinstalled from snapshots.
	RestoredNodes int
	// LostNodes counts crashed nodes that could not be recovered
	// (declared after the last Replicate on a peer that crashed).
	LostNodes int
	// BalanceMoves counts boundary moves applied by Balance.
	BalanceMoves int
	// ReplicaTransferMsgs counts the replica-set transfer messages
	// topology changes paid to re-home replicas onto their hosts' new
	// ring successors (one per source→target batch per event), and
	// ReplicaTransferredNodes the snapshots those messages carried —
	// the churn-proportional replication cost of the paper's model.
	ReplicaTransferMsgs     int
	ReplicaTransferredNodes int
}

// RecoveryReport is the outcome of one Recover pass.
type RecoveryReport struct {
	// Restored counts nodes reinstalled from replica snapshots.
	Restored int
	// Lost counts crashed nodes that could not be brought back; it is
	// always len(LostKeys).
	Lost int
	// LostKeys names the crashed node keys that could not be brought
	// back, or came back without some of their values, in ascending
	// order — only data declared after the last Replicate on a crashed
	// peer (plus prefix labels whose whole subtree vanished with it)
	// can appear here, so callers can assert loss windows precisely
	// instead of by cardinality.
	LostKeys []string
}

// PeerInfosFrom converts protocol-core peer summaries into the public
// view; shared by the engine implementations.
func PeerInfosFrom(ps []core.PeerSummary) []PeerInfo {
	out := make([]PeerInfo, len(ps))
	for i, p := range ps {
		out[i] = PeerInfo{
			ID:       string(p.ID),
			Capacity: p.Capacity,
			Nodes:    p.Nodes,
			Load:     p.LoadPrev,
		}
	}
	return out
}

// RecoveryReportFrom builds the public recovery report from the
// protocol core's restored count and lost key set; shared by the
// engine implementations.
func RecoveryReportFrom(restored int, lost []keys.Key) RecoveryReport {
	rep := RecoveryReport{Restored: restored, Lost: len(lost)}
	if len(lost) > 0 {
		rep.LostKeys = make([]string, len(lost))
		for i, k := range lost {
			rep.LostKeys[i] = string(k)
		}
	}
	return rep
}

// Config collects the deployment parameters every engine constructor
// accepts.
type Config struct {
	// Alphabet is the key alphabet of the overlay.
	Alphabet *keys.Alphabet
	// Capacities lists one entry per peer; the overlay starts with
	// len(Capacities) peers.
	Capacities []int
	// Seed fixes the engine's internal randomness (peer identifiers,
	// discovery entry points).
	Seed int64
	// JoinPlacement names the internal/lb strategy whose PlaceJoin
	// picks ring identifiers for joining peers ("KC", "NoLB", ...),
	// so k-choices placement runs on every backend, not just the
	// simulator. Empty keeps the engine's uniform random placement.
	JoinPlacement string
	// GateCapacity enforces per-peer capacity on the discovery path:
	// every discovery visit consumes capacity and a saturated peer
	// drops the request (Discover returns ErrSaturated) until Tick
	// starts the next time unit — Section 4's request model on the
	// deployment engines. Off by default.
	GateCapacity bool
	// Persist, when non-nil, makes the overlay durable: every
	// catalogue mutation appends to the store's journal and every
	// Replicate tick fsyncs it or writes a new snapshot image, so a
	// cold restart (Restore) can rebuild the overlay
	// after every peer dies.
	Persist *persist.Store
	// Restore rebuilds the overlay from Persist's newest snapshot and
	// journal instead of starting fresh: the persisted ring (ids and
	// capacities) is recreated — Capacities is ignored — the
	// replicated nodes are reinstalled through the canonical
	// anti-entropy rebuild, and the journal replays on top.
	Restore bool
	// Bind is the address the socket-backed engine's listeners bind:
	// "host", "host:port" or "host:0". Empty preserves the historical
	// 127.0.0.1 ephemeral-port binding; a fixed port only suits
	// single-peer deployments (dlptd). In-process engines ignore it.
	Bind string
	// AdvertiseHost overrides the host other processes dial when the
	// bind host is not reachable as written (e.g. a 0.0.0.0 bind
	// behind a NAT). In-process engines ignore it.
	AdvertiseHost string
	// Obs, when non-nil, instruments the engine: traversal counters,
	// per-phase hop-latency histograms and replication/pool state feed
	// this bundle's registry (see dlpt.WithObservability).
	Obs *obs.Metrics
	// Trace, when non-nil, records per-hop spans for routed traversals
	// and topology events into the ring-buffer recorder.
	Trace *trace.Recorder
}

// Factory constructs an engine from a Config. The root dlpt package
// maps engine kinds to factories; custom backends plug in through
// dlpt.WithEngineFactory.
type Factory func(Config) (Engine, error)

// Engine is one running deployment of the DLPT overlay. All methods
// are safe for concurrent use. Close releases the engine's resources
// (goroutines, listeners) and is idempotent; operations on a closed
// engine return ErrClosed.
type Engine interface {
	// Name identifies the backend ("local", "live", "tcp", ...).
	Name() string
	// Alphabet returns the overlay's key alphabet.
	Alphabet() *keys.Alphabet

	// Register declares key with a value.
	Register(ctx context.Context, key, value string) error
	// RegisterBatch declares every entry, holding the write side once
	// where the backend permits, and stops at the first failing entry.
	// Into an empty overlay it builds the tree in one sorted pass: the
	// state per-key registration leaves, one Host message charged a node.
	RegisterBatch(ctx context.Context, entries []Entry) error
	// Unregister removes value from key, reporting whether it was
	// registered.
	Unregister(ctx context.Context, key, value string) (bool, error)

	// Discover routes a discovery request for key through the overlay.
	// On a capacity-gated engine a saturated peer on the path drops
	// the request and Discover returns ErrSaturated.
	Discover(ctx context.Context, key string) (Result, error)
	// Query starts a streaming multi-key query: the returned Stream
	// yields matches in lexicographic order as the tree traversal
	// discovers them and stops traversing once q.Limit results have
	// been yielded or the consumer closes the stream. Cancelling ctx
	// aborts the in-flight traversal.
	Query(ctx context.Context, q Query) (Stream, error)
	// Complete resolves automatic completion of a partial search
	// string: every declared key extending prefix. It is a thin
	// wrapper draining Query.
	Complete(ctx context.Context, prefix string) (QueryResult, error)
	// Range resolves the lexicographic range query [lo, hi]. It is a
	// thin wrapper draining Query.
	Range(ctx context.Context, lo, hi string) (QueryResult, error)

	// AddPeer grows the overlay by one peer of the given capacity and
	// returns its identifier.
	AddPeer(ctx context.Context, capacity int) (string, error)
	// RemovePeer removes the peer with the given id gracefully: its
	// tree nodes hand off to the peers becoming responsible for them
	// and the catalogue is unchanged. Removing the last peer while it
	// hosts tree nodes is an error.
	RemovePeer(ctx context.Context, id string) error
	// CrashPeer fails the peer abruptly: its node states vanish
	// without transfer, per the paper's fault model. Until Recover
	// runs, the tree is degraded — discoveries may miss keys and
	// mutations must not be issued. The last peer cannot crash.
	CrashPeer(ctx context.Context, id string) error
	// Recover restores crashed node state from the replica store and
	// rebuilds the canonical tree structure; after it returns,
	// Validate holds again. Keys declared after the last Replicate on
	// a crashed peer are counted lost.
	Recover(ctx context.Context) (RecoveryReport, error)
	// Replicate brings every tree node's replica up to date (the
	// periodic replication tick backing CrashPeer/Recover), shipping
	// the nodes that changed since the last tick, and returns how many.
	Replicate(ctx context.Context) (int, error)
	// Peers lists the live peers in ascending id (ring) order.
	Peers(ctx context.Context) ([]PeerInfo, error)
	// MembershipStats reports the engine's peer-lifecycle and
	// replication counters.
	MembershipStats(ctx context.Context) (MembershipStats, error)

	// Tick ends the current load-accounting time unit: every node's
	// current load becomes the previous-unit load the balancing
	// strategies consume, and peer processed counters reset.
	Tick(ctx context.Context) error
	// Balance runs one periodic balancing round of the named
	// internal strategy ("MLT", "KC", "EqualLoad", "Directory",
	// "NoLB") over every peer, returning the number of boundary
	// moves applied. Peer identifiers may change: a move renames the
	// predecessor peer to preserve the placement rule.
	Balance(ctx context.Context, strategy string) (int, error)
	// Validate cross-checks every overlay invariant.
	Validate(ctx context.Context) error

	// NumPeers returns the current peer count.
	NumPeers() int
	// NumNodes returns the current tree size (declared keys plus
	// structural prefix nodes).
	NumNodes() int

	// Close shuts the engine down.
	Close() error
}
