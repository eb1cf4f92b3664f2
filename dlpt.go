// Package dlpt is a tree-structured peer-to-peer service discovery
// library: a production-shaped implementation of the Distributed
// Lexicographic Placement Table of Caron, Desprez and Tedeschi
// ("Efficiency of Tree-Structured Peer-to-Peer Service Discovery
// Systems", INRIA RR-6557, 2008).
//
// Services are identified by keys (e.g. names of computational
// routines); the overlay maintains a Proper Greatest Common Prefix
// tree of the declared keys directly over a ring of peers — no
// underlying DHT — supporting exact discovery, automatic completion
// of partial search strings, and lexicographic range queries, with
// the paper's MLT and k-choices load balancing (internal/lb) running
// on every engine; internal/experiments drives them through
// engine/local to reproduce the paper's evaluation.
//
// # Execution engines
//
// Every public operation runs over a pluggable execution engine (the
// engine.Engine interface), selected at construction time with
// WithEngine:
//
//	reg, err := dlpt.New(16, dlpt.WithEngine(dlpt.EngineTCP))
//
// Three backends ship with the module: EngineLocal (the sequential
// protocol core behind one mutex, deterministic), EngineLive (one
// goroutine per peer with channel mailboxes — the default), and
// EngineTCP (peers exchange binary-framed discovery hops multiplexed
// over persistent loopback TCP connections). Custom backends plug in
// through WithEngineFactory.
// The three are differentially tested to produce identical results on
// identical workloads.
//
// All operations take a context.Context; cancelling it aborts
// in-flight routed traversals on the concurrent backends and returns
// the context error.
//
// # Streaming queries
//
// Completion and range queries are result streams with limit
// pushdown: CompleteSeq, RangeSeq, ServicesSeq and Directory.FindSeq
// return Go iterators (iter.Seq2[string, error]) that yield matches
// in lexicographic order as the tree traversal discovers them and
// stop traversing once the limit is reached or the consumer breaks
// out of the loop. The slice methods (Complete, Range, Find) are
// thin wrappers draining the same streams. See engine.Query and
// engine.Stream for the contract the backends implement.
//
// # Membership and churn
//
// Peer lifecycle is engine-portable: AddPeerWithCapacity grows the
// ring, RemovePeer departs gracefully (node handoff), CrashPeer and
// Recover implement the paper's fault model over a Replicate snapshot
// tick, and Tick/Balance run the periodic MLT balancing step. The
// churn package drives all of this as a seeded workload over any
// engine. WithJoinPlacement runs a load-balancing strategy's join
// placement (e.g. k-choices) on every engine, and WithCapacityGating
// enforces per-peer capacity on the discovery path (Section 4's
// request model): saturated peers drop requests until the next Tick.
//
// The Registry type below is the service-discovery API and Directory
// (directory.go) the multi-attribute resource-discovery API; both run
// over any engine. The reproduction harness for the paper's figures
// and tables lives in cmd/dlptsim and the repository-level
// benchmarks.
package dlpt

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"

	"dlpt/engine"
	enginelive "dlpt/engine/live"
	enginelocal "dlpt/engine/local"
	enginetcp "dlpt/engine/tcp"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/persist"
	"dlpt/internal/trace"
)

// Engine is the pluggable execution backend every public operation
// routes through. See package dlpt/engine for the contract and the
// shipped implementations.
type Engine = engine.Engine

// EngineKind names one of the shipped execution engines.
type EngineKind string

const (
	// EngineLocal is the sequential protocol core behind one mutex:
	// deterministic, no goroutines, cheapest for tests and tools.
	EngineLocal EngineKind = "local"
	// EngineLive runs one goroutine per peer with channel mailboxes
	// and concurrent hop-by-hop discovery routing. The default.
	EngineLive EngineKind = "live"
	// EngineTCP runs every peer behind a loopback TCP listener;
	// discovery hops travel as binary frames multiplexed over
	// persistent pooled connections.
	EngineTCP EngineKind = "tcp"
)

// Service is a discovered service: the key and the endpoint values
// registered under it.
type Service struct {
	Name      string
	Endpoints []string
	// LogicalHops and PhysicalHops describe the routing cost of the
	// discovery that produced this result (tree edges traversed, and
	// those crossing peers).
	LogicalHops  int
	PhysicalHops int
}

// Registration is one service declaration, the unit of RegisterBatch.
type Registration struct {
	Name     string
	Endpoint string
}

// PeerInfo is a read-only view of one live peer.
type PeerInfo = engine.PeerInfo

// MembershipStats aggregates the overlay's peer-lifecycle and
// replication counters.
type MembershipStats = engine.MembershipStats

// RecoveryReport is the outcome of one Recover pass.
type RecoveryReport = engine.RecoveryReport

// options collects constructor settings.
type options struct {
	alphabet   *keys.Alphabet
	seed       int64
	capacities []int
	factory    engine.Factory
	kind       EngineKind
	placement  string
	gated      bool
	persistDir string
	bind       string
	advHost    string
	ob         *Observability
}

// Option configures New and NewDirectory.
type Option func(*options)

// WithSeed fixes the seed of the overlay's internal randomness (peer
// identifiers, entry points). The default is 1.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithAlphabet sets the key alphabet. The default accepts printable
// ASCII. Registering a key outside the alphabet fails.
func WithAlphabet(a *keys.Alphabet) Option {
	return func(o *options) { o.alphabet = a }
}

// WithCapacities sets per-peer capacities explicitly; the number of
// peers becomes len(capacities), overriding New's numPeers argument.
// Capacity only matters to the simulation-grade load statistics; the
// deployment engines do not throttle.
func WithCapacities(caps []int) Option {
	return func(o *options) { o.capacities = append([]int(nil), caps...) }
}

// WithEngine selects the execution engine backing the overlay:
// EngineLocal, EngineLive (the default) or EngineTCP.
func WithEngine(kind EngineKind) Option {
	return func(o *options) { o.kind = kind }
}

// WithEngineFactory plugs in a custom engine constructor, overriding
// WithEngine. The factory receives the resolved Config (alphabet,
// capacities, seed).
func WithEngineFactory(f engine.Factory) Option {
	return func(o *options) { o.factory = f }
}

// WithJoinPlacement names the load-balancing strategy whose join
// placement picks ring identifiers for joining peers ("KC" runs
// k-choices, as in the paper's dynamic scenarios) on every engine.
// The default draws uniformly random identifiers.
func WithJoinPlacement(strategy string) Option {
	return func(o *options) { o.placement = strategy }
}

// WithCapacityGating enforces per-peer capacity on the discovery
// path: every discovery visit consumes capacity and a saturated peer
// drops the request — Discover then returns ErrSaturated until Tick
// starts the next time unit. This is Section 4's request model,
// available on every engine; the default leaves discoveries ungated.
func WithCapacityGating() Option {
	return func(o *options) { o.gated = true }
}

// WithPersistence makes the overlay durable: every registration or
// unregistration appends to a journal in dir, and every Replicate tick
// fsyncs it or, when the journal cannot carry the tick, writes a new
// versioned snapshot image — so a cold restart after every peer dies
// (including the last) can rebuild the overlay with Restart. The
// directory is created if needed; reusing a previous run's directory
// continues its epoch sequence.
func WithPersistence(dir string) Option {
	return func(o *options) { o.persistDir = dir }
}

// WithBindAddress sets where the socket-backed engine (EngineTCP)
// binds its listeners: "host", "host:port" or "host:0". advertiseHost
// optionally overrides the host other processes dial (useful when
// binding 0.0.0.0). The default keeps the historical loopback
// ephemeral ports; in-process engines ignore both.
func WithBindAddress(bind, advertiseHost string) Option {
	return func(o *options) { o.bind, o.advHost = bind, advertiseHost }
}

// Observability bundles the instrumentation surface of one overlay: a
// metrics registry (Prometheus text format via Registry.WriteText or
// obs.Handler), the pre-registered series the engines feed, and a
// bounded in-memory recorder of per-hop trace spans. Construct one
// with NewObservability, pass it to New or NewDirectory via
// WithObservability, and read it while the overlay runs; the same
// bundle can be mounted on an HTTP listener with obs.Handler.
type Observability struct {
	// Registry holds every metric series and renders the Prometheus
	// exposition text.
	Registry *obs.Registry
	// Metrics are the overlay series (visits, per-phase hop latency,
	// replication lag, ...) registered on Registry.
	Metrics *obs.Metrics
	// Trace records recent spans in a fixed-size ring; Trace.Trees
	// reassembles them into per-discovery span trees.
	Trace *trace.Recorder
}

// NewObservability builds an instrumentation bundle with the default
// span-ring capacity.
func NewObservability() *Observability {
	reg := obs.NewRegistry()
	return &Observability{
		Registry: reg,
		Metrics:  obs.NewMetrics(reg),
		Trace:    trace.NewRecorder(trace.DefaultCapacity),
	}
}

// WithObservability instruments the overlay: the engines count visits,
// drops, per-phase hop latencies and replication progress into
// ob.Metrics and record per-hop spans into ob.Trace. The zero cost of
// the default (no bundle) is preserved: engines skip all
// instrumentation when none is configured. Passing nil is a no-op.
func WithObservability(ob *Observability) Option {
	return func(o *options) { o.ob = ob }
}

// ErrClosed is returned by operations on a closed Registry or
// Directory.
var ErrClosed = engine.ErrClosed

// ErrSaturated is returned by Discover on a capacity-gated overlay
// (WithCapacityGating) when a peer on the routing path has exhausted
// its per-time-unit capacity; compare with errors.Is.
var ErrSaturated = engine.ErrSaturated

// buildRegistry resolves options into a Registry over a running engine
// (and the persistence store it owns, when WithPersistence is set).
// restore rebuilds the overlay from the store instead of starting fresh.
func buildRegistry(numPeers int, opts []Option, restore bool) (*Registry, error) {
	o := options{alphabet: keys.PrintableASCII, seed: 1, kind: EngineLive}
	for _, opt := range opts {
		opt(&o)
	}
	caps := o.capacities
	if caps == nil && !restore {
		if numPeers < 1 {
			return nil, fmt.Errorf("dlpt: numPeers = %d", numPeers)
		}
		caps = slices.Repeat([]int{1 << 20}, numPeers)
	}
	var store *persist.Store
	if o.persistDir != "" {
		var err error
		if store, err = persist.Open(o.persistDir); err != nil {
			return nil, err
		}
	} else if restore {
		return nil, errors.New("dlpt: restart without a persistence directory")
	}
	factory := o.factory
	if factory == nil {
		switch o.kind {
		case EngineLocal:
			factory = enginelocal.Factory
		case EngineLive, "":
			factory = enginelive.Factory
		case EngineTCP:
			factory = enginetcp.Factory
		default:
			return nil, fmt.Errorf("dlpt: unknown engine %q", o.kind)
		}
	}
	cfg := engine.Config{
		Alphabet:      o.alphabet,
		Capacities:    caps,
		Seed:          o.seed,
		JoinPlacement: o.placement,
		GateCapacity:  o.gated,
		Persist:       store,
		Restore:       restore,
		Bind:          o.bind,
		AdvertiseHost: o.advHost,
	}
	if o.ob != nil {
		cfg.Obs = o.ob.Metrics
		cfg.Trace = o.ob.Trace
	}
	eng, err := factory(cfg)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	if store != nil && !restore {
		// A fresh overlay must own its persistence epoch from the
		// start: without this tick, its journal records would land in
		// a previous run's epoch, and a crash before the first
		// explicit Replicate would restore a chimera of the old
		// snapshot plus the new overlay's mutations. The initial tick
		// snapshots the fresh ring (and nothing else), so Restart is
		// meaningful from construction onwards.
		if _, err := eng.Replicate(context.Background()); err != nil {
			eng.Close()
			store.Close()
			return nil, err
		}
	}
	return &Registry{eng: eng, alpha: o.alphabet, store: store, ob: o.ob}, nil
}

// Registry is a running service-discovery overlay. All methods are
// safe for concurrent use. Close releases the engine's resources.
type Registry struct {
	eng   engine.Engine
	alpha *keys.Alphabet
	store *persist.Store // owned persistence store; nil without WithPersistence
	ob    *Observability // nil without WithObservability
}

// New starts an overlay of numPeers peers over the selected engine
// (EngineLive unless WithEngine says otherwise).
func New(numPeers int, opts ...Option) (*Registry, error) {
	return buildRegistry(numPeers, opts, false)
}

// Restart rebuilds an overlay from a persistence directory after
// every peer died — the cold-restart path of the fault-tolerance
// subsystem, including the last-peer case. The persisted ring (peer
// ids and capacities) is recreated, the newest valid snapshot's
// replica state is reinstalled through the canonical anti-entropy
// rebuild, and the journal replays the mutations recorded after that
// snapshot; the restored overlay passes the full invariant set.
// Engine choice and other options apply as in New; peer counts and
// capacities come from disk. Durability requires at least one
// Replicate tick to have run before the crash — Restart fails when no
// valid snapshot exists.
func Restart(dir string, opts ...Option) (*Registry, error) {
	return buildRegistry(0, append(append([]Option(nil), opts...), WithPersistence(dir)), true)
}

// NewWithEngine wraps an already-running engine in a Registry. The
// Registry takes ownership: Close closes the engine.
func NewWithEngine(eng engine.Engine) *Registry {
	return &Registry{eng: eng, alpha: eng.Alphabet()}
}

// Engine exposes the backing execution engine.
func (r *Registry) Engine() engine.Engine { return r.eng }

// Observability returns the instrumentation bundle configured with
// WithObservability, nil when the overlay is uninstrumented.
func (r *Registry) Observability() *Observability { return r.ob }

// ObsSnapshot returns a point-in-time copy of every metric series as a
// map keyed `name{labels}`. On an uninstrumented overlay it returns an
// empty snapshot, so callers can diff metrics without checking for
// WithObservability first.
func (r *Registry) ObsSnapshot() obs.Snapshot {
	if r.ob == nil {
		return obs.Snapshot{}
	}
	return r.ob.Registry.Snapshot()
}

// Close shuts the overlay down (and, on a durable overlay, the
// persistence store's journal — the on-disk state stays, ready for
// Restart). It is idempotent.
func (r *Registry) Close() error {
	if r.store == nil {
		return r.eng.Close()
	}
	return errors.Join(r.eng.Close(), r.store.Close())
}

// checkName validates a service name against the overlay alphabet.
func (r *Registry) checkName(name string) error {
	if name == "" {
		return errors.New("dlpt: empty service name")
	}
	if !r.alpha.Valid(keys.Key(name)) {
		return fmt.Errorf("dlpt: service name %q outside alphabet", name)
	}
	return nil
}

// Register declares that endpoint provides the service named name.
func (r *Registry) Register(ctx context.Context, name, endpoint string) error {
	if err := r.checkName(name); err != nil {
		return err
	}
	return r.eng.Register(ctx, name, endpoint)
}

// RegisterBatch declares every registration in one engine call, holding
// the engine's write side once where the backend permits, and stops at
// the first failing entry. Into an overlay with no node (a new Registry's
// first batch) it builds the tree in one sorted pass: the state of
// registering one by one, but with each node charged one Host message.
func (r *Registry) RegisterBatch(ctx context.Context, regs []Registration) error {
	entries := make([]engine.Entry, len(regs))
	for i, reg := range regs {
		if err := r.checkName(reg.Name); err != nil {
			return err
		}
		entries[i] = engine.Entry{Key: reg.Name, Value: reg.Endpoint}
	}
	return r.eng.RegisterBatch(ctx, entries)
}

// Unregister withdraws endpoint from the service named name,
// reporting whether it was registered.
func (r *Registry) Unregister(ctx context.Context, name, endpoint string) (bool, error) {
	return r.eng.Unregister(ctx, name, endpoint)
}

// Discover routes a discovery request through the overlay and returns
// the service, if declared.
func (r *Registry) Discover(ctx context.Context, name string) (Service, bool, error) {
	res, err := r.eng.Discover(ctx, name)
	if err != nil {
		return Service{}, false, err
	}
	if !res.Found {
		return Service{}, false, nil
	}
	return Service{
		Name:         name,
		Endpoints:    res.Values,
		LogicalHops:  res.LogicalHops,
		PhysicalHops: res.PhysicalHops,
	}, true, nil
}

// seq adapts an engine query to a Go iterator: the stream is opened
// lazily on first iteration and closed on every exit path, so
// breaking out of the loop halts the underlying traversal.
func seq(ctx context.Context, eng engine.Engine, q engine.Query) iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		s, err := eng.Query(ctx, q)
		if err != nil {
			yield("", err)
			return
		}
		defer s.Close()
		for {
			k, ok := s.Next()
			if !ok {
				if err := s.Err(); err != nil {
					yield("", err)
				}
				return
			}
			if !yield(k, nil) {
				return
			}
		}
	}
}

// drain collects an engine query into a slice — the slice methods
// below are thin wrappers over the same streams the Seq methods
// expose, so both paths cannot diverge.
func drain(ctx context.Context, eng engine.Engine, q engine.Query) ([]string, error) {
	res, err := engine.CollectQuery(ctx, eng, q)
	if err != nil {
		return nil, err
	}
	return res.Keys, nil
}

// Complete returns up to limit declared service names extending the
// given prefix, in lexicographic order (the paper's automatic
// completion of partial search strings), resolved by a routed subtree
// traversal. limit <= 0 means no limit. It is a thin wrapper draining
// CompleteSeq's stream.
func (r *Registry) Complete(ctx context.Context, prefix string, limit int) ([]string, error) {
	return drain(ctx, r.eng, engine.Query{Kind: engine.QueryComplete, Prefix: prefix, Limit: limit})
}

// CompleteSeq streams the declared service names extending prefix in
// lexicographic order as the routed subtree traversal discovers them.
// The traversal stops as soon as limit results have been yielded
// (limit <= 0 streams every match) or the consumer breaks out of the
// loop — it never materializes the full match set first, so a
// limit-10 completion over millions of keys pays for ten results, not
// millions.
func (r *Registry) CompleteSeq(ctx context.Context, prefix string, limit int) iter.Seq2[string, error] {
	return seq(ctx, r.eng, engine.Query{Kind: engine.QueryComplete, Prefix: prefix, Limit: limit})
}

// Range returns up to limit declared service names in [lo, hi], in
// lexicographic order, resolved by a routed subtree traversal.
// limit <= 0 means no limit. It is a thin wrapper draining RangeSeq's
// stream.
func (r *Registry) Range(ctx context.Context, lo, hi string, limit int) ([]string, error) {
	return drain(ctx, r.eng, engine.Query{Kind: engine.QueryRange, Lo: lo, Hi: hi, Limit: limit})
}

// RangeSeq streams the declared service names in [lo, hi] in
// lexicographic order as the routed subtree traversal discovers them,
// with the same early-termination contract as CompleteSeq.
func (r *Registry) RangeSeq(ctx context.Context, lo, hi string, limit int) iter.Seq2[string, error] {
	return seq(ctx, r.eng, engine.Query{Kind: engine.QueryRange, Lo: lo, Hi: hi, Limit: limit})
}

// Services returns every declared service name in lexicographic order.
// It is a routed read, a thin wrapper draining ServicesSeq's stream: it
// equals the live set once the overlay is quiescent, which after a peer
// crash means after Recover.
func (r *Registry) Services(ctx context.Context) ([]string, error) {
	return drain(ctx, r.eng, engine.Query{Kind: engine.QueryComplete})
}

// ServicesSeq streams every declared service name in lexicographic
// order through a routed traversal of the whole tree. The stream is
// incremental: breaking out of the loop halts the traversal, so
// paging through the first screen of a huge catalogue does not walk
// all of it.
func (r *Registry) ServicesSeq(ctx context.Context) iter.Seq2[string, error] {
	return seq(ctx, r.eng, engine.Query{Kind: engine.QueryComplete})
}

// AddPeer grows the overlay by one peer of effectively unbounded
// capacity. Use AddPeerWithCapacity for heterogeneous deployments.
func (r *Registry) AddPeer(ctx context.Context) error {
	_, err := r.eng.AddPeer(ctx, 1<<20)
	return err
}

// AddPeerWithCapacity grows the overlay by one peer of the given
// per-time-unit capacity and returns its identifier — the handle for
// RemovePeer/CrashPeer and the id heterogeneous-capacity balancing
// scenarios schedule against.
func (r *Registry) AddPeerWithCapacity(ctx context.Context, capacity int) (string, error) {
	return r.eng.AddPeer(ctx, capacity)
}

// RemovePeer removes the peer with the given id gracefully: its tree
// nodes hand off and the catalogue is unchanged.
func (r *Registry) RemovePeer(ctx context.Context, id string) error {
	return r.eng.RemovePeer(ctx, id)
}

// CrashPeer fails the peer abruptly, per the paper's fault model: its
// node states vanish without transfer. Until Recover runs the tree is
// degraded — discoveries may miss keys and mutations must not be
// issued.
func (r *Registry) CrashPeer(ctx context.Context, id string) error {
	return r.eng.CrashPeer(ctx, id)
}

// Recover restores crashed node state from the replica store and
// rebuilds the canonical tree structure; afterwards Validate holds
// again. Keys declared after the last Replicate on a crashed peer are
// counted lost.
func (r *Registry) Recover(ctx context.Context) (RecoveryReport, error) {
	return r.eng.Recover(ctx)
}

// Replicate brings every tree node's replica up to date — the
// periodic replication tick that backs crash recovery. It ships the
// nodes that changed since the last tick and returns how many.
func (r *Registry) Replicate(ctx context.Context) (int, error) {
	return r.eng.Replicate(ctx)
}

// Peers lists the live peers in ascending id (ring) order.
func (r *Registry) Peers(ctx context.Context) ([]PeerInfo, error) {
	return r.eng.Peers(ctx)
}

// MembershipStats reports the overlay's peer-lifecycle and
// replication counters.
func (r *Registry) MembershipStats(ctx context.Context) (MembershipStats, error) {
	return r.eng.MembershipStats(ctx)
}

// Tick ends the current load-accounting time unit: node loads roll
// into the history the balancing strategies consume.
func (r *Registry) Tick(ctx context.Context) error { return r.eng.Tick(ctx) }

// Balance runs one periodic balancing round of the named strategy
// ("MLT", "KC", "EqualLoad", "Directory", "NoLB") and returns the
// number of boundary moves applied. Peer identifiers may change.
func (r *Registry) Balance(ctx context.Context, strategy string) (int, error) {
	return r.eng.Balance(ctx, strategy)
}

// NumPeers returns the current number of peers.
func (r *Registry) NumPeers() int { return r.eng.NumPeers() }

// NumNodes returns the number of tree nodes (declared keys plus
// structural prefix nodes).
func (r *Registry) NumNodes() int { return r.eng.NumNodes() }

// Validate cross-checks every overlay invariant (ring order, mapping
// rule, PGCP tree structure); it is exposed for operational
// diagnostics and tests.
func (r *Registry) Validate(ctx context.Context) error { return r.eng.Validate(ctx) }
