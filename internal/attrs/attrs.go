// Package attrs extends the DLPT with multi-attribute service
// queries, the extension the paper names explicitly ("these
// architectures ... are easy to extend to multi-attribute queries",
// Section 1) and that the related work it cites (MAAN, SWORD)
// provides over DHTs.
//
// The encoding is the standard one for trie overlays: each attribute
// pair (attr, value) of a service is declared in the PGCP tree under
// the key "attr=value", with the service identifier as data. Exact
// predicates route as discoveries, per-attribute range and prefix
// predicates route as subtree queries on the "attr=" region of the
// tree, and conjunctive multi-attribute queries intersect the
// per-predicate identifier sets at the querying client — every
// predicate resolves in parallel branches of the same tree.
//
// The directory issues every sub-query through the Backend interface
// (satisfied by any engine.Engine), so conjunctive queries run
// unchanged over the sequential core, the goroutine runtime, or the
// TCP transport.
package attrs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dlpt/engine"
	"dlpt/internal/keys"
)

// Sep separates attribute names from values in tree keys.
const Sep = "="

// Backend is the execution surface the directory queries through: the
// subset of engine.Engine the multi-attribute layer needs. Every
// engine satisfies it.
type Backend interface {
	Alphabet() *keys.Alphabet
	Register(ctx context.Context, key, value string) error
	RegisterBatch(ctx context.Context, entries []engine.Entry) error
	Unregister(ctx context.Context, key, value string) (bool, error)
	Discover(ctx context.Context, key string) (engine.Result, error)
	Query(ctx context.Context, q engine.Query) (engine.Stream, error)
	Complete(ctx context.Context, prefix string) (engine.QueryResult, error)
	Range(ctx context.Context, lo, hi string) (engine.QueryResult, error)
	Validate(ctx context.Context) error
}

// Service is a described service to register.
type Service struct {
	// ID uniquely identifies the service (e.g. an endpoint).
	ID string
	// Attributes maps attribute names to values ("cpu" -> "x86_64").
	Attributes map[string]string
}

// Predicate is one conjunct of a multi-attribute query.
type Predicate struct {
	// Attr is the attribute name.
	Attr string
	// Exact, when set, requires Attr == Exact.
	Exact string
	// Prefix, when set, requires the value to extend Prefix.
	Prefix string
	// Lo/Hi, when set (non-empty Hi), require Lo <= value <= Hi.
	Lo, Hi string
}

// Cost aggregates the routing cost of a query.
type Cost struct {
	LogicalHops  int
	PhysicalHops int
}

// Directory is a multi-attribute view over a DLPT overlay. Queries
// run concurrently; the registration mirror is guarded by its own
// lock, so no global serialization sits above the backend.
type Directory struct {
	b Backend

	// mu guards services (the registration mirror used for
	// validation and unregistering) and pending (ids reserved by an
	// in-flight Register, invisible to readers until the engine
	// writes land).
	mu       sync.RWMutex
	services map[string]map[string]string // guarded by mu
	pending  map[string]bool              // guarded by mu
}

// NewDirectory wraps a running backend. The backend's alphabet must
// contain the separator and the attribute/value characters used.
func NewDirectory(b Backend) *Directory {
	return &Directory{
		b:        b,
		services: make(map[string]map[string]string),
		pending:  make(map[string]bool),
	}
}

func attrKey(attr, value string) string {
	return attr + Sep + value
}

func validName(s string) bool {
	return s != "" && !strings.Contains(s, Sep)
}

// Register declares every attribute pair of the service in the tree.
func (d *Directory) Register(ctx context.Context, svc Service) error {
	if svc.ID == "" {
		return fmt.Errorf("attrs: empty service id")
	}
	if len(svc.Attributes) == 0 {
		return fmt.Errorf("attrs: service %q has no attributes", svc.ID)
	}
	// Deterministic insertion order.
	names := make([]string, 0, len(svc.Attributes))
	for a := range svc.Attributes {
		if !validName(a) {
			return fmt.Errorf("attrs: invalid attribute name %q", a)
		}
		names = append(names, a)
	}
	sort.Strings(names)
	alpha := d.b.Alphabet()
	entries := make([]engine.Entry, len(names))
	for i, a := range names {
		k := attrKey(a, svc.Attributes[a])
		if !alpha.Valid(keys.Key(k)) {
			return fmt.Errorf("attrs: key %q outside overlay alphabet", k)
		}
		entries[i] = engine.Entry{Key: k, Value: svc.ID}
	}
	// Reserve the id before the engine calls so concurrent duplicate
	// registrations cannot interleave; the id stays invisible to
	// readers (Describe/Validate) until the tree writes landed.
	d.mu.Lock()
	if d.pending[svc.ID] || d.services[svc.ID] != nil {
		d.mu.Unlock()
		return fmt.Errorf("attrs: service %q already registered", svc.ID)
	}
	d.pending[svc.ID] = true
	d.mu.Unlock()

	if err := d.b.RegisterBatch(ctx, entries); err != nil {
		// A failed batch may have applied a prefix of the entries;
		// withdraw them best-effort detached from the caller's
		// cancellation (it may already have fired) but keeping its
		// values.
		for _, ent := range entries {
			_, _ = d.b.Unregister(context.WithoutCancel(ctx), ent.Key, svc.ID)
		}
		d.mu.Lock()
		delete(d.pending, svc.ID)
		d.mu.Unlock()
		return err
	}
	attrsCopy := make(map[string]string, len(svc.Attributes))
	for a, v := range svc.Attributes {
		attrsCopy[a] = v
	}
	d.mu.Lock()
	delete(d.pending, svc.ID)
	d.services[svc.ID] = attrsCopy
	d.mu.Unlock()
	return nil
}

// Unregister withdraws the service from every attribute key it was
// declared under. It reports whether the service was registered.
func (d *Directory) Unregister(ctx context.Context, id string) (bool, error) {
	d.mu.Lock()
	attrs, ok := d.services[id]
	if ok {
		delete(d.services, id)
	}
	d.mu.Unlock()
	if !ok {
		return false, nil
	}
	for a, v := range attrs {
		if _, err := d.b.Unregister(ctx, attrKey(a, v), id); err != nil {
			return true, err
		}
	}
	return true, nil
}

// Rehydrate rebuilds the registration mirror from the overlay — the
// restore path after a cold restart, where the attribute keys came back
// from disk but the per-service maps did not. It reads the overlay as
// a client does: a drained completion of the empty prefix lists every
// "attr=value" key, and one routed Discover per key returns its ids,
// which are folded back into the service descriptions (attribute names
// cannot contain the separator, so the first separator splits
// unambiguously). Existing mirror entries are replaced wholesale.
func (d *Directory) Rehydrate(ctx context.Context) error {
	all, err := d.b.Complete(ctx, "")
	if err != nil {
		return err
	}
	services := make(map[string]map[string]string)
	for _, k := range all.Keys {
		attr, value, ok := strings.Cut(k, Sep)
		if !ok {
			return fmt.Errorf("attrs: rehydrate: key %q has no separator", k)
		}
		res, err := d.b.Discover(ctx, k)
		if err != nil {
			return err
		}
		for _, id := range res.Values {
			if svc, ok := services[id]; ok {
				svc[attr] = value
			} else {
				services[id] = map[string]string{attr: value}
			}
		}
	}
	d.mu.Lock()
	d.services = services
	d.mu.Unlock()
	return nil
}

// NumServices returns the number of registered services.
func (d *Directory) NumServices() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.services)
}

// predEval is the evaluation state of one predicate: the candidate
// attribute keys its subtree query matched and, once materialized,
// the sorted set of service ids declared under them. The sorted sets
// are what the conjunction merges — a predicate whose turn never
// comes (because the running intersection already emptied) is never
// materialized and issues no discoveries at all.
type predEval struct {
	p    Predicate
	keys []string // candidate attr=value keys, lexicographic
	ids  []string // sorted unique service ids; valid once done
	done bool
}

// candidateKeys enumerates the attribute keys matching one predicate
// by routed subtree query (exact predicates name their key
// statically).
func (d *Directory) candidateKeys(ctx context.Context, p Predicate, cost *Cost) ([]string, error) {
	if !validName(p.Attr) {
		return nil, fmt.Errorf("attrs: invalid attribute %q", p.Attr)
	}
	var q engine.Query
	switch {
	case p.Exact != "":
		return []string{attrKey(p.Attr, p.Exact)}, nil
	case p.Prefix != "":
		q = engine.Query{Kind: engine.QueryComplete, Prefix: attrKey(p.Attr, p.Prefix)}
	case p.Hi != "":
		if p.Hi < p.Lo {
			return nil, nil
		}
		q = engine.Query{Kind: engine.QueryRange,
			Lo: attrKey(p.Attr, p.Lo), Hi: attrKey(p.Attr, p.Hi)}
	default:
		// Attribute presence: every value under "attr=".
		q = engine.Query{Kind: engine.QueryComplete, Prefix: p.Attr + Sep}
	}
	res, err := engine.CollectQuery(ctx, d.b, q)
	if err != nil {
		return nil, err
	}
	cost.LogicalHops += res.LogicalHops
	cost.PhysicalHops += res.PhysicalHops
	return res.Keys, nil
}

// discoverIDs fetches the service ids declared under one attribute
// key by routed discovery.
func (d *Directory) discoverIDs(ctx context.Context, key string, cost *Cost) ([]string, error) {
	res, err := d.b.Discover(ctx, key)
	if err != nil {
		return nil, err
	}
	cost.LogicalHops += res.LogicalHops
	cost.PhysicalHops += res.PhysicalHops
	return res.Values, nil
}

// discoverConcurrency bounds the parallel per-key discoveries of the
// driving predicate (on the TCP engine each one is a chain of real
// wire round-trips).
const discoverConcurrency = 8

// discoverChunk fetches the ids under each key concurrently,
// preserving key order; cost sums are commutative and merged under a
// lock. The first error cancels the chunk's remaining lookups.
func (d *Directory) discoverChunk(ctx context.Context, ks []string, cost *Cost) ([][]string, error) {
	if len(ks) == 1 {
		ids, err := d.discoverIDs(ctx, ks[0], cost)
		return [][]string{ids}, err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([][]string, len(ks))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, k := range ks {
		wg.Add(1)
		//dlptlint:ignore determinism out[i] keeps key order regardless of completion order; cost merge is commutative
		go func(i int, k string) {
			defer wg.Done()
			res, err := d.b.Discover(cctx, k)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancel() // abort the remaining in-flight lookups
				}
				return
			}
			cost.LogicalHops += res.LogicalHops
			cost.PhysicalHops += res.PhysicalHops
			out[i] = res.Values
		}(i, k)
	}
	wg.Wait()
	return out, firstErr
}

// materialize discovers every candidate key's ids — prefetched
// discoverConcurrency keys at a time, since each is an independent
// routed read — and folds them into one sorted, deduplicated set.
// Each key is looked up exactly once; the old lazy membership probes
// issued the same lookups one at a time, sequentially, as
// intersection tests demanded them.
func (pe *predEval) materialize(ctx context.Context, d *Directory, cost *Cost) error {
	if pe.done {
		return nil
	}
	var all []string
	for start := 0; start < len(pe.keys); start += discoverConcurrency {
		end := start + discoverConcurrency
		if end > len(pe.keys) {
			end = len(pe.keys)
		}
		chunk, err := d.discoverChunk(ctx, pe.keys[start:end], cost)
		if err != nil {
			return err
		}
		for _, ids := range chunk {
			all = append(all, ids...)
		}
	}
	sort.Strings(all)
	ids := all[:0]
	for i, id := range all {
		if i > 0 && all[i-1] == id {
			continue
		}
		ids = append(ids, id)
	}
	pe.ids = ids
	pe.done = true
	return nil
}

// intersectSorted narrows a (ascending, unique) to the ids also
// present in b (ascending, unique), in place.
func intersectSorted(a, b []string) []string {
	out := a[:0]
	j := 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j == len(b) {
			break
		}
		if b[j] == id {
			out = append(out, id)
			j++
		}
	}
	return out
}

// plan builds the evaluation order of a conjunctive query: every
// predicate's candidate keys are enumerated (one routed subtree query
// each, keys arriving in sorted order), and the predicates are
// arranged fewest-candidates-first so the cheapest stream seeds the
// merge and the running intersection narrows as early as possible.
func (d *Directory) plan(ctx context.Context, preds []Predicate, cost *Cost) ([]*predEval, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("attrs: empty query")
	}
	evals := make([]*predEval, len(preds))
	for i, p := range preds {
		ks, err := d.candidateKeys(ctx, p, cost)
		if err != nil {
			return nil, err
		}
		evals[i] = &predEval{p: p, keys: ks}
	}
	sort.SliceStable(evals, func(a, b int) bool {
		return len(evals[a].keys) < len(evals[b].keys)
	})
	return evals, nil
}

// runQuery streams the conjunction as a sorted merge across the
// per-predicate id streams: each predicate materializes (in
// fewest-candidates-first order) into one ascending id set and the
// running intersection merges pairwise through them. An intersection
// that empties short-circuits the remaining predicates before they
// issue a single discovery. Matches yield in ascending id order;
// yield returning false stops the stream.
func (d *Directory) runQuery(ctx context.Context, evals []*predEval, cost *Cost,
	yield func(id string, err error) bool) {

	var cur []string
	for i, pe := range evals {
		if i > 0 && len(cur) == 0 {
			return
		}
		if err := pe.materialize(ctx, d, cost); err != nil {
			yield("", err)
			return
		}
		if i == 0 {
			cur = pe.ids
		} else {
			cur = intersectSorted(cur, pe.ids)
		}
	}
	for _, id := range cur {
		if !yield(id, nil) {
			return
		}
	}
}

// QuerySeq streams the service ids matching every predicate in
// ascending order, as the sorted merge across the per-predicate id
// streams produces them. The consumer breaking out of the loop stops
// the evaluation.
func (d *Directory) QuerySeq(ctx context.Context, preds ...Predicate) func(yield func(string, error) bool) {
	return func(yield func(string, error) bool) {
		var cost Cost
		evals, err := d.plan(ctx, preds, &cost)
		if err != nil {
			yield("", err)
			return
		}
		d.runQuery(ctx, evals, &cost, yield)
	}
}

// Query resolves the conjunction of the given predicates and returns
// the matching service ids in order, with the aggregate routing cost.
// It is a thin wrapper draining the same incremental evaluation
// QuerySeq streams.
func (d *Directory) Query(ctx context.Context, preds ...Predicate) ([]string, Cost, error) {
	var cost Cost
	evals, err := d.plan(ctx, preds, &cost)
	if err != nil {
		return nil, cost, err
	}
	var out []string
	var firstErr error
	d.runQuery(ctx, evals, &cost, func(id string, err error) bool {
		if err != nil {
			firstErr = err
			return false
		}
		out = append(out, id)
		return true
	})
	if firstErr != nil {
		return nil, cost, firstErr
	}
	return out, cost, nil
}

// Describe returns the registered attributes of a service.
func (d *Directory) Describe(id string) (map[string]string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	attrs, ok := d.services[id]
	if !ok {
		return nil, false
	}
	out := make(map[string]string, len(attrs))
	for a, v := range attrs {
		out[a] = v
	}
	return out, true
}

// Validate cross-checks the directory against the overlay: every
// registered attribute pair must be discoverable and carry the
// service id.
func (d *Directory) Validate(ctx context.Context) error {
	if err := d.b.Validate(ctx); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for id, attrs := range d.services {
		for a, v := range attrs {
			res, err := d.b.Discover(ctx, attrKey(a, v))
			if err != nil {
				return err
			}
			if !res.Found {
				return fmt.Errorf("attrs: key %q of service %q missing", attrKey(a, v), id)
			}
			found := false
			for _, got := range res.Values {
				if got == id {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("attrs: service %q missing under %q", id, attrKey(a, v))
			}
		}
	}
	return nil
}
