package core

import (
	"math/rand"
	"strconv"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/trace"
)

// QueryResult reports the outcome of a multi-key query (range or
// completion) routed through the overlay.
type QueryResult struct {
	// Keys are the matching data-holding keys in lexicographic order.
	Keys []keys.Key
	// LogicalHops counts tree edges traversed, including the subtree
	// traversal (the paper resolves it by parallelizing over
	// branches; the counter totals all branch messages).
	LogicalHops int
	// PhysicalHops counts traversed edges crossing peers.
	PhysicalHops int
	// NodesVisited counts tree nodes touched.
	NodesVisited int
}

// QuerySpec describes one subtree query: automatic completion of a
// partial search string (Range=false) or a lexicographic range query
// (Range=true), optionally bounded by Limit.
type QuerySpec struct {
	Range  bool
	Prefix keys.Key // completion: every declared key extending Prefix
	Lo, Hi keys.Key // range: every declared key in [Lo, Hi]
	// Limit bounds the number of keys the walk yields; the traversal
	// stops as soon as Limit matches have been found (limit pushdown).
	// Limit <= 0 means unlimited.
	Limit int
}

// RangeQuery resolves the range query [lo, hi]: the request enters at
// a random node, climbs to the deepest node whose subtree spans the
// whole interval, and the subtree is traversed with pruning — the
// multi-branch resolution the DLPT supports (Section 2). Ungated:
// like the paper, only unit discovery requests consume capacity.
func (net *Network) RangeQuery(lo, hi keys.Key, r *rand.Rand) QueryResult {
	return net.runQuery(QuerySpec{Range: true, Lo: lo, Hi: hi}, r)
}

// Complete resolves automatic completion of the partial search string
// prefix: all declared keys extending it, collected from the subtree
// of the deepest node prefixing it.
func (net *Network) Complete(prefix keys.Key, r *rand.Rand) QueryResult {
	return net.runQuery(QuerySpec{Prefix: prefix}, r)
}

// runQuery drives a walker to exhaustion in one go (the slice path;
// the engines' streaming paths drive the same walker incrementally).
func (net *Network) runQuery(spec QuerySpec, r *rand.Rand) QueryResult {
	w := NewQueryWalker(net, spec)
	if w.Empty() {
		return QueryResult{}
	}
	entry, ok := net.RandomNodeKey(r)
	if !ok {
		return QueryResult{}
	}
	w.Start(entry)
	var ks []keys.Key
	for {
		var more bool
		ks, more = w.StepN(ks, 0, 1<<30)
		if !more {
			break
		}
	}
	res := w.Stats()
	res.Keys = ks
	return res
}

// walker phases.
const (
	phaseClimb = iota
	phaseDescend
	phaseWalk
	phaseDone
)

// walkFrame is one pending subtree node of the traversal: the tree
// edge it is reached over, plus the host of that edge's parent end (the
// physical-hop accounting input).
type walkFrame struct {
	edge Child
	from keys.Key // host id of the parent node; ε for the subtree root
	root bool     // subtree root: already counted during climb/descend
}

// QueryWalker performs the climb / descend / pruned-subtree traversal
// of a subtree query one bounded batch at a time, yielding matches in
// lexicographic order as the walk discovers them. Callers drive it
// with StepN under whatever locking their engine requires and simply
// stop calling it to terminate early — the walker never touches nodes
// beyond the last batch, which is what makes limit pushdown and
// consumer cancellation cut the traversal cost instead of hiding it.
type QueryWalker struct {
	net     *Network
	anchor  keys.Key
	match   func(keys.Key) bool
	explore func(keys.Key) bool
	limit   int
	empty   bool

	phase   int
	cur     Child    // current node during climb/descend
	curHost keys.Key // its host id
	stack   []walkFrame
	emitted int
	res     QueryResult // hop/visit counters; Keys unused

	// Instrumentation (inherited from Network.Obs/Tracer; both
	// nil-safe). parent is the trace context phase spans hang under —
	// zero starts a fresh trace, the tcp engine sets the wire context.
	met       *obs.Metrics
	rec       *trace.Recorder
	parent    trace.Context
	span      trace.Handle
	phName    string
	phHops    int
	phStart   time.Time
	visitBase int
}

// NewQueryWalker builds the walker for spec. An inverted range yields
// the empty walker (Empty reports true) without consuming an entry
// point, matching the slice path.
func NewQueryWalker(net *Network, spec QuerySpec) *QueryWalker {
	w := &QueryWalker{net: net, limit: spec.Limit, phase: phaseDone,
		met: net.Obs, rec: net.Tracer}
	if spec.Range {
		if spec.Hi < spec.Lo {
			w.empty = true
			return w
		}
		lo, hi := spec.Lo, spec.Hi
		w.anchor = keys.GCP(lo, hi)
		w.match = func(k keys.Key) bool { return lo <= k && k <= hi }
		w.explore = func(label keys.Key) bool {
			// Prune subtrees entirely outside [lo,hi] (see trie.Range).
			if label > hi {
				return false
			}
			if label < lo && !keys.IsProperPrefix(label, lo) {
				return false
			}
			return true
		}
		return w
	}
	prefix := spec.Prefix
	w.anchor = prefix
	w.match = func(k keys.Key) bool { return keys.IsPrefix(prefix, k) }
	w.explore = func(label keys.Key) bool {
		return keys.IsPrefix(prefix, label) || keys.IsPrefix(label, prefix)
	}
	return w
}

// Empty reports whether the query is void by construction (inverted
// range): no entry point is needed and the walk yields nothing.
func (w *QueryWalker) Empty() bool { return w.empty }

// Start enters the tree at the given node key (normally a
// RandomNodeKey draw performed under the caller's lock).
func (w *QueryWalker) Start(entry keys.Key) {
	if w.empty {
		return
	}
	n, h, ok := w.net.NodeAt(entry)
	if !ok {
		return
	}
	w.res.NodesVisited++
	w.cur = n.Edge()
	w.curHost = h.ID
	w.phase = phaseClimb
	w.enterPhase(obs.PhaseClimb, h.ID)
}

// TraceUnder parents this walker's phase spans beneath an externally
// propagated trace context (the tcp engine passes the wire context so
// server-side walk spans join the client's trace). Call before Start
// or ResumeWalk.
func (w *QueryWalker) TraceUnder(parent trace.Context) { w.parent = parent }

// enterPhase closes the running phase span (if any) and opens the
// next one. No-op unless the walker is instrumented.
func (w *QueryWalker) enterPhase(name string, peer keys.Key) {
	if w.met == nil && w.rec == nil {
		return
	}
	w.closePhase()
	w.phName = name
	w.phHops = w.res.LogicalHops
	w.phStart = time.Now() //dlptlint:ignore determinism span timing feeds metrics only, never wire values
	w.span = w.rec.Start(w.parent, name, string(peer))
}

// closePhase ends the running phase span and folds its hop count and
// duration into the phase metrics.
func (w *QueryWalker) closePhase() {
	if w.phName == "" {
		return
	}
	hops := w.res.LogicalHops - w.phHops
	//dlptlint:ignore determinism phase duration feeds metrics only, never wire values
	w.met.RecordPhase(w.phName, hops, time.Since(w.phStart))
	if w.span.Active() {
		w.span.SetAttr("hops", strconv.Itoa(hops))
		w.span.End()
	}
	w.phName = ""
}

// FinishTrace flushes the walker's instrumentation: the open phase
// span ends and the visit delta folds into the visit counter.
// Idempotent; the walker calls it itself when the traversal reaches
// its natural end, engines call it when a consumer abandons the walk
// early.
func (w *QueryWalker) FinishTrace() {
	if w.met == nil && w.rec == nil {
		return
	}
	w.closePhase()
	if w.met != nil {
		w.met.Visits.Add(float64(w.res.NodesVisited - w.visitBase))
		w.visitBase = w.res.NodesVisited
	}
}

// done ends the traversal, flushing instrumentation.
func (w *QueryWalker) done() {
	w.phase = phaseDone
	w.FinishTrace()
}

// Stats returns the hop and visit counters accumulated so far.
func (w *QueryWalker) Stats() QueryResult {
	return QueryResult{
		LogicalHops:  w.res.LogicalHops,
		PhysicalHops: w.res.PhysicalHops,
		NodesVisited: w.res.NodesVisited,
	}
}

// StepN advances the traversal by at most maxVisits node visits,
// appending matched keys to out (maxEmit > 0 additionally caps the
// keys appended in this batch). It returns the extended slice and
// whether the traversal can continue. Callers hold whatever lock
// guards the network for the duration of one call; every visit Follows
// its edge afresh, so churn between calls degrades the walk (skipped
// subtrees) rather than corrupting it — the same behaviour a hop-by-hop
// discovery has on a degraded tree.
func (w *QueryWalker) StepN(out []keys.Key, maxEmit, maxVisits int) ([]keys.Key, bool) {
	if maxVisits <= 0 {
		maxVisits = 1
	}
	visits, batchEmitted := 0, 0
	for visits < maxVisits {
		switch w.phase {
		case phaseDone:
			return out, false

		case phaseClimb, phaseDescend:
			n, h, ok := w.net.Follow(w.cur)
			if !ok {
				w.done()
				return out, false
			}
			w.curHost = h.ID
			down := w.phase == phaseDescend
			q, covers := RouteStep(n, w.anchor, &down)
			if down && w.phase == phaseClimb {
				w.phase = phaseDescend
				w.enterPhase(obs.PhaseDescend, w.curHost)
			}
			if !covers {
				if next, nextHost, ok := w.net.Follow(q); ok {
					w.res.LogicalHops++
					w.res.NodesVisited++
					visits++
					if nextHost.ID != h.ID {
						w.res.PhysicalHops++
					}
					w.cur, w.curHost = next.Edge(), nextHost.ID
					continue
				}
				if !down {
					w.done() // the father vanished: the walk yields nothing
					return out, false
				}
			}
			// n covers the query, or the child that would has vanished.
			w.beginWalk(n)

		case phaseWalk:
			if len(w.stack) == 0 {
				w.done()
				return out, false
			}
			fr := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			n, h, ok := w.net.Follow(fr.edge)
			if !ok {
				continue // pruned by churn/crash: skip, as the slice path does
			}
			if !fr.root {
				w.res.LogicalHops++
				w.res.NodesVisited++
				visits++
				if h.ID != fr.from {
					w.res.PhysicalHops++
				}
			}
			if n.HasData() && w.match(n.Key) {
				out = append(out, n.Key)
				w.emitted++
				batchEmitted++
				if w.limit > 0 && w.emitted >= w.limit {
					w.done()
					return out, false
				}
				if maxEmit > 0 && batchEmitted >= maxEmit {
					w.pushChildren(n, h.ID)
					return out, true
				}
			}
			w.pushChildren(n, h.ID)
		}
	}
	return out, w.phase != phaseDone
}

// ResumeWalk seeds the subtree traversal directly at a covering node
// that the climb/descend phases resolved elsewhere — the tcp engine
// relays those phases hop-by-hop between listeners and only then
// opens the stream at the anchor's host. pre carries the counters the
// route accumulated, so the stream's totals match a walker that ran
// all three phases against one tree. An anchor pruned by churn since
// the route resolved it ends the walk empty, exactly as a vanished
// entry node does in Start.
func (w *QueryWalker) ResumeWalk(anchor keys.Key, pre QueryResult) {
	if w.empty {
		return
	}
	w.res.LogicalHops = pre.LogicalHops
	w.res.PhysicalHops = pre.PhysicalHops
	w.res.NodesVisited = pre.NodesVisited
	// The route's hops and visits were accounted where they ran (the
	// QROUTE legs); the visit counter folds only this walker's own.
	w.visitBase = pre.NodesVisited
	w.phHops = pre.LogicalHops
	n, h, ok := w.net.NodeAt(anchor)
	if !ok {
		w.done()
		return
	}
	w.curHost = h.ID
	w.beginWalk(n)
}

// RouteStep is the Section 2 transition of a request standing at n:
// climb until the node's subtree covers the anchor (its label is a
// prefix of the anchor) or the root is reached, then descend while a
// single child still covers it. For a subtree query that narrows the
// traversal root; for a discovery (the anchor is the key) it ends at the
// key's node or where no child leads towards it. It returns the edge to
// move over, or covers when n is where the route ends; down is the
// route's phase, flipped here when the climb ends. The rule is pure: the
// drivers (Discover, the walker above, the hop-by-hop route of
// internal/overlay) Follow next, which checks that it still exists, and
// do the counting.
func RouteStep(n *Node, anchor keys.Key, down *bool) (next Child, covers bool) {
	if !*down {
		if !keys.IsPrefix(n.Key, anchor) && n.HasFather {
			return n.FatherEdge(), false
		}
		*down = true
	}
	q, ok := n.BestChildFor(anchor)
	if !ok || !keys.IsPrefix(q.Key, anchor) {
		return Child{}, true
	}
	return q, false
}

// beginWalk seeds the subtree traversal at the covering node reached
// by the climb/descend phases (already counted as visited there).
func (w *QueryWalker) beginWalk(n *Node) {
	w.phase = phaseWalk
	w.enterPhase(obs.PhaseWalk, w.curHost)
	w.stack = w.stack[:0]
	if w.explore(n.Key) || w.match(n.Key) {
		w.stack = append(w.stack, walkFrame{edge: n.Edge(), root: true})
	}
}

// pushChildren stacks n's explorable children in descending order so
// they pop in ascending label order — the invariant behind the
// stream's lexicographic yield order.
func (w *QueryWalker) pushChildren(n *Node, host keys.Key) {
	for i := len(n.Children) - 1; i >= 0; i-- {
		if c := n.Children[i]; w.explore(c.Key) {
			w.stack = append(w.stack, walkFrame{edge: c, from: host})
		}
	}
}
