package dlpt

import (
	"context"
	"iter"

	"dlpt/internal/attrs"
)

// Resource describes a service registered in a Directory: an
// identifier plus attribute pairs ("cpu" -> "x86_64").
type Resource struct {
	ID         string
	Attributes map[string]string
}

// Where is one conjunct of a multi-attribute query. Set exactly one
// of Equals / HasPrefix / the Min+Max pair; an empty predicate tests
// attribute presence.
type Where struct {
	Attr      string
	Equals    string
	HasPrefix string
	Min, Max  string
}

// QueryStats reports the routing cost of a directory query.
type QueryStats struct {
	TreeHops     int
	CrossPeerOps int
}

// Directory is a multi-attribute resource-discovery overlay: each
// attribute pair is declared as an "attr=value" key in a DLPT prefix
// tree, and conjunctive queries intersect per-predicate matches, each
// resolved by routed tree traversal (exact, prefix or range) through
// the configured execution engine. Safe for concurrent use: queries
// run concurrently on the engine's read side instead of serializing
// behind a directory-wide lock. Close releases the engine.
type Directory struct {
	reg   *Registry // the overlay the attribute tree runs on
	inner *attrs.Directory
}

// NewDirectory starts a directory over a fresh overlay of numPeers
// peers, backed by the selected engine (EngineLive unless WithEngine
// says otherwise).
func NewDirectory(numPeers int, opts ...Option) (*Directory, error) {
	reg, err := buildRegistry(numPeers, opts, false)
	if err != nil {
		return nil, err
	}
	return &Directory{reg: reg, inner: attrs.NewDirectory(reg.eng)}, nil
}

// NewDirectoryWithEngine wraps an already-running engine in a
// Directory. The Directory takes ownership: Close closes the engine.
func NewDirectoryWithEngine(eng Engine) *Directory {
	return &Directory{reg: NewWithEngine(eng), inner: attrs.NewDirectory(eng)}
}

// RestartDirectory rebuilds a durable directory from its persistence
// directory after every peer died — the Directory counterpart of
// Restart. The overlay restores exactly as Restart does, and the
// per-resource attribute descriptions (backing Describe,
// UnregisterResource and Validate) are rehydrated from the restored
// attribute tree: every "attr=value" key's ids fold back into their
// resource maps.
func RestartDirectory(dir string, opts ...Option) (*Directory, error) {
	reg, err := Restart(dir, opts...)
	if err != nil {
		return nil, err
	}
	d := &Directory{reg: reg, inner: attrs.NewDirectory(reg.eng)}
	if err := d.inner.Rehydrate(context.Background()); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// Engine exposes the backing execution engine.
func (d *Directory) Engine() Engine { return d.reg.eng }

// Close shuts the directory's overlay down (and, on a durable
// overlay, the persistence store's journal). It is idempotent.
func (d *Directory) Close() error { return d.reg.Close() }

// RegisterResource declares a resource with its attributes.
func (d *Directory) RegisterResource(ctx context.Context, res Resource) error {
	return d.inner.Register(ctx, attrs.Service{ID: res.ID, Attributes: res.Attributes})
}

// UnregisterResource withdraws a resource, reporting whether it was
// registered.
func (d *Directory) UnregisterResource(ctx context.Context, id string) (bool, error) {
	return d.inner.Unregister(ctx, id)
}

// Find returns the ids of resources matching every predicate, in
// order, with the aggregate routing cost. It is a thin wrapper
// draining the same incremental evaluation FindSeq streams.
func (d *Directory) Find(ctx context.Context, preds ...Where) ([]string, QueryStats, error) {
	ids, cost, err := d.inner.Query(ctx, toPredicates(preds)...)
	return ids, QueryStats{TreeHops: cost.LogicalHops, CrossPeerOps: cost.PhysicalHops}, err
}

// FindSeq streams the ids of resources matching every predicate in
// ascending order. The conjunction evaluates as a sorted merge across
// per-predicate id streams: predicates materialize fewest-candidates
// first (each one's attribute keys discovered concurrently, every key
// exactly once), and a running intersection that empties
// short-circuits the remaining predicates before they issue any
// discovery.
func (d *Directory) FindSeq(ctx context.Context, preds ...Where) iter.Seq2[string, error] {
	return iter.Seq2[string, error](d.inner.QuerySeq(ctx, toPredicates(preds)...))
}

func toPredicates(preds []Where) []attrs.Predicate {
	ps := make([]attrs.Predicate, len(preds))
	for i, p := range preds {
		ps[i] = attrs.Predicate{
			Attr: p.Attr, Exact: p.Equals, Prefix: p.HasPrefix,
			Lo: p.Min, Hi: p.Max,
		}
	}
	return ps
}

// Describe returns the registered attributes of a resource.
func (d *Directory) Describe(id string) (map[string]string, bool) {
	return d.inner.Describe(id)
}

// NumResources returns the number of registered resources.
func (d *Directory) NumResources() int {
	return d.inner.NumServices()
}

// Validate cross-checks the directory and overlay invariants.
func (d *Directory) Validate(ctx context.Context) error {
	return d.inner.Validate(ctx)
}

// AddPeerWithCapacity grows the directory's overlay by one peer of
// the given capacity and returns its identifier.
func (d *Directory) AddPeerWithCapacity(ctx context.Context, capacity int) (string, error) {
	return d.reg.AddPeerWithCapacity(ctx, capacity)
}

// RemovePeer removes a peer gracefully; the resource catalogue is
// unchanged.
func (d *Directory) RemovePeer(ctx context.Context, id string) error {
	return d.reg.RemovePeer(ctx, id)
}

// CrashPeer fails a peer abruptly. Until Recover runs, queries may
// miss resources and registrations must not be issued.
func (d *Directory) CrashPeer(ctx context.Context, id string) error {
	return d.reg.CrashPeer(ctx, id)
}

// Recover restores crashed attribute-tree state from the replica
// store.
func (d *Directory) Recover(ctx context.Context) (RecoveryReport, error) {
	return d.reg.Recover(ctx)
}

// Replicate snapshots the attribute tree to the replica store.
func (d *Directory) Replicate(ctx context.Context) (int, error) {
	return d.reg.Replicate(ctx)
}

// Peers lists the live peers in ring order.
func (d *Directory) Peers(ctx context.Context) ([]PeerInfo, error) {
	return d.reg.Peers(ctx)
}

// MembershipStats reports the overlay's peer-lifecycle and
// replication counters.
func (d *Directory) MembershipStats(ctx context.Context) (MembershipStats, error) {
	return d.reg.MembershipStats(ctx)
}
