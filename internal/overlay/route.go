// The routed request, end to end: the hop that travels, the driver
// that takes it through one peer and passes it on, and the originator
// that issues it, waits for the direct reply and re-issues it when it
// is lost. A request travels one way — nothing acknowledges a forward
// and hops hold no state for it — and the peer where routing ends
// answers the originator directly. How a hop and its answer travel is
// the Link's (Send, Reply); everything else is here, once, for every
// cluster that routes.

package overlay

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/trace"
)

// ErrNoReply is returned by a discovery or query none of whose
// attempts was answered: each time the hop or its reply was lost, or a
// peer could not pass the hop on (a crashed or departed peer, an
// unreachable return address).
var ErrNoReply = errors.New("overlay: no reply from the overlay")

// reissueAfter is the sweeper's period: a call still unanswered after
// one to two periods counts as lost and is re-issued. It is far above
// any healthy discovery (microseconds in process, tens of them on
// loopback, a dial's worth on a cold pool), because a needless re-issue
// costs an extra entry draw. Originate bounds the issues of one call.
const (
	reissueAfter = 500 * time.Millisecond
	maxAttempts  = 3
	maxIssues    = 4 * maxAttempts
)

// Hop is one routed request in flight: a discovery, or the
// climb/descend route that finds a subtree query the node to start its
// walk at. It is all there is of the request — a peer that passed it on
// remembers nothing.
type Hop struct {
	// Query marks a query route; Key is then the anchor the route
	// narrows towards. Otherwise Key is the key a discovery looks for.
	Query bool
	Key   keys.Key
	// At is the node the hop stands at.
	At keys.Key
	// Down is the phase: a request climbs until a node whose subtree
	// contains what it looks for, then descends.
	Down bool
	// Logical counts tree edges, Physical the transfers between peers
	// among them, Visited the nodes a query route touched (its walk
	// continues the count).
	Logical, Physical, Visited int
	// Redirects counts deliveries for a node the addressed peer does not
	// host; see MaxRedirects.
	Redirects int
	// Origin and ReplyTo name the caller: the pending id it waits on and
	// the return address of its cluster. The address is the link's — the
	// one that needs it stamps it on a hop that has none, on the way out
	// — and stays empty in process.
	Origin  uint64
	ReplyTo string
	// TC is the trace parent of whatever handles the hop next.
	TC trace.Context
}

// Reply is the answer that ends a routed request. A discovery is
// answered with Found and Values, or Dropped. A query route is answered
// with the covering node to open the walk at (Found, Anchor), or with
// the end of the query when the route ran into a node lost to churn
// (!Found: the walk yields nothing, with the route's counters as
// totals, exactly as the walker behaves at a vanished node).
type Reply struct {
	Found bool
	// Dropped reports that a saturated peer ignored the request
	// (capacity gating).
	Dropped  bool
	Values   []string
	Anchor   keys.Key
	Logical  int
	Physical int
	Visited  int
	Err      string
	// Retry marks an Err that says nothing about the key: a peer could
	// not pass the hop on, and the originator should re-issue it from a
	// fresh entry node.
	Retry bool
}

// ServeHop runs one peer's share of a routed request and passes it on:
// one way to the next host while the walk continues, or as the answer
// to the originator where it ends — found, not found, dropped by
// gating, redirects exhausted, or a send that failed, which the
// originator cures by re-issuing. One span covers the stay. at is the
// ring id of the endpoint the hop arrived at, read here under Mu: a
// balancing round renames endpoints under the write lock.
func (r *Runtime) ServeHop(at *keys.Key, h *Hop) {
	r.Mu.RLock()
	self := *at
	r.Mu.RUnlock()
	phase, attr := obs.PhaseRelay, "key"
	if h.Query {
		phase, attr = obs.PhaseQRoute, "anchor"
	}
	span := r.Rec.Start(h.TC, phase, string(self))
	span.SetAttr(attr, string(h.Key))
	h.TC = span.Context()
	var rep Reply
	next, done := r.advance(self, h, &rep)
	if !done {
		if err := r.link.Send(context.Background(), next, *h); err != nil {
			rep, done = Reply{Err: err.Error(), Retry: true}, true
		}
	}
	if done {
		rep.Logical, rep.Physical, rep.Visited = h.Logical, h.Physical, h.Visited
		// A reply that cannot be delivered is dropped; the caller's
		// sweeper re-issues the call.
		_ = r.link.Reply(*h, rep)
	}
	span.End()
}

// advance routes the hop at self for as long as the walk stays on
// nodes that peer hosts. When the walk leaves the peer it returns the
// next host, with the hop updated in place and ready to send; where
// routing ends it reports done with the outcome in rep. A step follows
// the link of the edge it takes, the father's or a child's, and the next
// iteration starts from that link (Network.Follow re-checks it), so only
// the node a hop arrives at is probed.
func (r *Runtime) advance(self keys.Key, h *Hop, rep *Reply) (next keys.Key, done bool) {
	at := core.Child{Key: h.At}
	for {
		r.Mu.RLock()
		node, peer, ok := r.Net.Follow(at)
		if !ok || peer.ID != self {
			// self left, crashed or was renamed: the originator re-issues.
			if _, ok := r.Net.Peer(self); !ok {
				r.Mu.RUnlock()
				*rep = Reply{Err: fmt.Sprintf("peer %q gone", self), Retry: true}
				return "", true
			}
			// The node lives elsewhere (stale routing): redirect to its
			// current host. A node lost to an unrecovered crash has no
			// host anywhere: bound the redirects and report what the walk
			// has (not found; a query yields nothing, exactly as the
			// walker does at a vanished node).
			host, okh := r.Net.HostOf(h.At)
			r.Mu.RUnlock()
			h.Redirects++
			return host, !okh || h.Redirects > MaxRedirects
		}
		var host keys.Key
		if h.Query {
			at, host, done = r.queryStepLocked(node, h, rep)
		} else if at, done = r.stepLocked(peer, node, h, rep); !done {
			at, host = r.hostLocked(at)
		}
		r.Mu.RUnlock()
		if done {
			return "", true
		}
		h.At = at.Key
		h.Logical++
		if host == self {
			continue // next node is local: nothing travels
		}
		h.Physical++
		return host, false
	}
}

// stepLocked is the Section 2 discovery transition at node, hosted by
// peer: the node to move to, or done with the outcome in rep (Found and
// Values, or Dropped). The step is core.RouteStep, which flips the hop's
// phase once a prefix of the key is reached. core.Network.Discover is
// the sequential reference the differential tests hold this against.
// Callers hold Mu; the read side suffices, visit and capacity accounting
// being atomic.
func (r *Runtime) stepLocked(peer *core.Peer, node *core.Node, h *Hop, rep *Reply) (next core.Child, done bool) {
	node.RecordVisit()
	if r.Met != nil {
		r.Met.Visits.Inc()
	}
	if r.Gate && !peer.TryProcess() {
		// Section 4's request model: the visit is received (load
		// recorded above) but a saturated peer ignores the request.
		if r.Met != nil {
			r.Met.Drops.Inc()
		}
		rep.Dropped = true
		return core.Child{}, true
	}
	if next, done = core.RouteStep(node, h.Key, &h.Down); done && node.Key == h.Key {
		// A structural node (no data) means the key was never declared.
		rep.Values = node.SortedValues()
		rep.Found = rep.Values != nil
	}
	return next, done
}

// hostLocked resolves the node a hop moves to: the edge linked to it and
// its host, or for a node the index does not hold the placement's host,
// where the hop then ends in redirects. Callers hold Mu.
func (r *Runtime) hostLocked(to core.Child) (core.Child, keys.Key) {
	if n, p, ok := r.Net.Follow(to); ok {
		return n.Edge(), p.ID
	}
	host, _ := r.Net.HostOf(to.Key)
	return to, host
}

// queryStepLocked is a query route's transition at one hosted node:
// core.RouteStep, which the walker's own climb and descend phases call
// too, with the walker's counting and its behaviour at a vanished node
// — so on a stable tree the streamed totals match a walker that ran
// every phase in one process. It returns the edge linked to the next
// node, with its host. Callers hold Mu.
func (r *Runtime) queryStepLocked(node *core.Node, h *Hop, rep *Reply) (next core.Child, host keys.Key, done bool) {
	if h.Visited == 0 {
		h.Visited = 1 // the entry node, counted as the walker's Start does
	}
	next, covers := core.RouteStep(node, h.Key, &h.Down)
	if !covers {
		if n, p, ok := r.Net.Follow(next); ok {
			h.Visited++
			return n.Edge(), p.ID, false
		}
		if !h.Down {
			return core.Child{}, "", true // the father vanished: the query yields nothing
		}
	}
	// node covers the query, or the child that would has vanished.
	rep.Found, rep.Anchor = true, node.Key
	return core.Child{}, "", true
}

// pendingCall is one originated hop awaiting its direct reply. Whoever
// removes it from Runtime.pending — Complete on the reply, the sweeper
// when it is overdue — owes done exactly one send (buffered, so that
// send never blocks); a caller that gives up removes it itself and is
// owed nothing.
type pendingCall struct {
	done chan bool // true: rep holds the reply; false: overdue
	born uint64    // Runtime.tick at registration
	rep  Reply
}

// callPool recycles pendingCalls (and their channels) across calls.
var callPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan bool, 1)} }}

// Complete hands a direct reply to the call waiting on id: the
// receiving end of every link's Reply. Replies for ids nobody waits on
// — late answers to a call already re-issued or abandoned, duplicates
// — are dropped.
func (r *Runtime) Complete(id uint64, rep Reply) {
	r.pmu.Lock()
	p := r.pending[id]
	delete(r.pending, id)
	r.pmu.Unlock()
	if p != nil {
		p.rep = rep
		p.done <- true
	}
}

// PendingCalls reports how many originated calls await a reply: zero
// on a quiet cluster, whatever was lost or abandoned before.
func (r *Runtime) PendingCalls() int {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	return len(r.pending)
}

// Sweep is the runtime's one timer for every pending call: each period
// it expires the calls registered before the previous period began, so
// waiting costs a call no timer and no allocation of its own. A cluster
// that originates runs it on a goroutine of its own; it returns on Halt.
func (r *Runtime) Sweep() {
	t := time.NewTicker(reissueAfter)
	defer t.Stop()
	for {
		select {
		case <-r.Quit:
			return
		case <-t.C:
		}
		r.pmu.Lock()
		r.tick++
		for id, p := range r.pending {
			if r.tick-p.born >= 2 {
				delete(r.pending, id)
				p.done <- false
			}
		}
		r.pmu.Unlock()
	}
}

// DrawEntryLocked draws the node one routed attempt or one stream
// enters the tree at, with its host. Callers hold Mu, either side: the
// draws order themselves behind entryMu.
func (r *Runtime) DrawEntryLocked() (entry, host keys.Key, ok bool) {
	r.entryMu.Lock()
	defer r.entryMu.Unlock()
	return r.Net.RandomEntry(r.entryRng)
}

// Originate routes h through the overlay and waits for its direct
// reply, one attempt at a time (see attempt), each from a fresh entry
// draw. An attempt is re-issued, up to maxAttempts, when the sweeper
// finds it overdue (the hop or its reply was lost) or at once when a
// peer reports that it could not pass the hop on; one that failed after
// the ring changed since its draw (churn, not a fault) is not counted,
// up to maxIssues issues in all. ok is false on an empty tree (nothing
// was sent). The root span, named phase, opens with the first attempt
// and is the caller's to end.
func (r *Runtime) Originate(ctx context.Context, phase string, h Hop, rep *Reply) (root trace.Handle, ok bool, err error) {
	p := callPool.Get().(*pendingCall)
	defer callPool.Put(p)
	for issue, failed := 1, 0; ; issue++ {
		var host keys.Key
		r.Mu.RLock()
		h.At, host, ok = r.DrawEntryLocked()
		ring := r.Net.Ring().Changes()
		r.Mu.RUnlock()
		if !ok {
			return root, false, err
		}
		if issue == 1 {
			root = r.Rec.StartRoot(phase, string(host))
			h.TC = root.Context()
		}
		var retry bool
		if retry, err = r.attempt(ctx, host, h, p, rep); err == nil {
			return root, true, nil
		}
		// Whatever went wrong, a caller or cluster that gave up
		// meanwhile reports that instead.
		if cerr := ctx.Err(); cerr != nil {
			return root, true, cerr
		}
		if r.Stopped() {
			return root, true, ErrStopped
		}
		if !retry {
			return root, true, err
		}
		r.Mu.RLock()
		if r.Net.Ring().Changes() == ring {
			failed++
		}
		r.Mu.RUnlock()
		if failed == maxAttempts || issue == maxIssues {
			if !errors.Is(err, ErrNoReply) {
				err = fmt.Errorf("%w: %v", ErrNoReply, err)
			}
			return root, true, err
		}
	}
}

// attempt issues h once: it registers p under a fresh pending id,
// stamps the hop with it and sends it one way to the entry node's
// host; the peer where routing ends answers through its link, whose
// receiving end completes the call. attempt returns when the call is
// answered or overdue, or the caller or the cluster gives up — in every
// case with p withdrawn and quiet. retry reports an error a re-issue
// can cure.
func (r *Runtime) attempt(ctx context.Context, host keys.Key, h Hop, p *pendingCall, rep *Reply) (retry bool, err error) {
	r.pmu.Lock()
	r.lastCall++
	h.Origin, p.born = r.lastCall, r.tick
	r.pending[h.Origin] = p
	r.pmu.Unlock()
	if err := r.link.Send(ctx, host, h); err != nil {
		r.abandon(h.Origin, p)
		return true, err
	}
	select {
	case replied := <-p.done:
		if !replied {
			return true, ErrNoReply
		}
		*rep, p.rep = p.rep, Reply{}
		if rep.Err != "" {
			return rep.Retry, errors.New(rep.Err)
		}
		return false, nil
	case <-ctx.Done():
		r.abandon(h.Origin, p)
		return false, ctx.Err()
	case <-r.Quit:
		r.abandon(h.Origin, p)
		return false, ErrStopped
	}
}

// abandon withdraws a call nobody will wait on any longer. If Complete
// or the sweeper got to it first, their send is already owed: take it,
// so the pendingCall is quiet when it is reused.
func (r *Runtime) abandon(id uint64, p *pendingCall) {
	r.pmu.Lock()
	_, waiting := r.pending[id]
	delete(r.pending, id)
	r.pmu.Unlock()
	if !waiting {
		<-p.done
		p.rep = Reply{}
	}
}

// Discover routes a discovery for key, entering at a random node.
func (r *Runtime) Discover(key keys.Key) (Result, error) {
	return r.DiscoverContext(context.Background(), key)
}

// DiscoverContext is Discover under a caller context: cancelling ctx
// withdraws the pending call and returns the context error at once.
// The hop still in flight runs out on its own — peers hold no state for
// it — and its reply is dropped on arrival.
func (r *Runtime) DiscoverContext(ctx context.Context, key keys.Key) (Result, error) {
	if r.Stopped() {
		return Result{}, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	began := time.Now()
	h := Hop{Key: key, Physical: r.ClientHops}
	var rep Reply
	root, ok, err := r.Originate(ctx, obs.PhaseDiscover, h, &rep)
	if !ok && err == nil {
		return Result{Key: key}, nil
	}
	root.SetAttr("key", string(key))
	root.End()
	if r.Met != nil {
		d := time.Since(began)
		r.Met.DiscoverLatency.Observe(d.Seconds())
		r.Met.RecordPhase(obs.PhaseDiscover, rep.Logical, d)
		r.Met.RecordPhase(obs.PhaseRelay, rep.Physical, d)
	}
	if err != nil {
		return Result{Key: key}, err
	}
	return Result{
		Key:          key,
		Found:        rep.Found,
		Values:       rep.Values,
		LogicalHops:  rep.Logical,
		PhysicalHops: rep.Physical,
		Dropped:      rep.Dropped,
	}, nil
}
