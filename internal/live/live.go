// Package live is the in-process data path of the overlay runtime
// (internal/overlay): one goroutine per peer, channel mailboxes, and
// hop-by-hop discovery routing between goroutines — the shape a
// deployment of the paper's protocol would take (the authors'
// future-work prototype; see DESIGN.md substitutions).
//
// Membership, replication, balancing, registration and the discovery
// transition itself are the embedded overlay.Runtime's. This package
// owns what is specific to goroutines and channels: the peer procs
// behind the runtime's Link (spawn, retire and drain, re-key, replica
// batches on the ctrl channel), mailbox forwarding and the entry draw.
// A subtree query is the runtime's pull stream (overlay.Stream): the
// walk reads the shared network and needs no goroutine. Correctness
// against the sequential engine is checked by differential tests, and
// the package is exercised under the race detector.
package live

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// discoverMsg is one in-flight discovery request. ctx is the
// originating caller's context: every hop checks it, so cancelling
// the discovery aborts the routed traversal mid-flight instead of
// letting it run to completion against a departed client.
type discoverMsg struct {
	ctx     context.Context
	key     keys.Key
	at      keys.Key // node the request is addressed to
	goingUp bool
	// tc is the trace context of the previous hop's span (the
	// discovery root for the first hop): each processing step parents
	// its span under it and replaces it with its own, chaining the
	// hops into one tree.
	tc trace.Context
	// redirects counts re-deliveries for a node the addressed peer
	// does not host. Transient moves (churn, balancing) resolve in a
	// hop or two; a crashed, unrecovered node would redirect forever,
	// so the walk gives up past overlay.MaxRedirects.
	redirects int
	res       overlay.Result
	reply     chan overlay.Result
}

// replicaMsg carries one successor replica batch to the peer that
// must hold it (the per-peer delivery path of the Replicate tick).
// done receives the number of snapshots installed.
type replicaMsg struct {
	batch core.ReplicaBatch
	done  chan int
}

// peerProc is the goroutine-owned handle of one peer.
type peerProc struct {
	// id is the peer's current ring identifier: written only under
	// Cluster.Mu's write lock (balancing renames), read under either
	// side of it.
	id      keys.Key
	mailbox chan discoverMsg
	// ctrl delivers successor replica batches to the peer goroutine,
	// off the discovery fast path.
	ctrl chan replicaMsg
	// quit is closed when the peer leaves or crashes; the goroutine
	// then drains its mailbox and exits.
	quit chan struct{}
	// senders tracks in-flight forwards that hold a reference to this
	// proc, so draining can wait for the last possible send.
	senders sync.WaitGroup
}

// Cluster is a running overlay: the shared runtime plus one proc per
// peer.
type Cluster struct {
	overlay.Runtime

	entryMu  sync.Mutex
	entryRng *rand.Rand // guarded by entryMu (used by Discover readers)

	procMu sync.RWMutex
	procs  map[keys.Key]*peerProc // guarded by procMu

	wg sync.WaitGroup
}

// ErrStopped is returned by operations on a stopped cluster.
var ErrStopped = overlay.ErrStopped

// errNoProc fails a replica shipment whose target has no goroutine
// (any more); the runtime then installs the batch directly.
var errNoProc = errors.New("live: no goroutine serves the peer")

const mailboxDepth = 128

// Start launches a cluster with one peer per capacity entry.
func Start(alpha *keys.Alphabet, capacities []int, seed int64) (*Cluster, error) {
	return StartOpts(alpha, capacities, seed, overlay.Options{})
}

// StartOpts is Start with explicit options.
func StartOpts(alpha *keys.Alphabet, capacities []int, seed int64, opts overlay.Options) (*Cluster, error) {
	if len(capacities) == 0 && !opts.Restore {
		return nil, errors.New("live: no peers")
	}
	c := &Cluster{
		entryRng: rand.New(rand.NewSource(seed + 1)),
		procs:    make(map[keys.Key]*peerProc),
	}
	c.Init(alpha, seed, opts)
	if err := c.Attach(link{c}, capacities); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// link is the cluster seen as the runtime's overlay.Link: a peer's
// endpoint is its proc.
type link struct{ c *Cluster }

// PeerUp starts the goroutine serving peer id.
func (l link) PeerUp(id keys.Key) error {
	p := &peerProc{
		id:      id,
		mailbox: make(chan discoverMsg, mailboxDepth),
		ctrl:    make(chan replicaMsg),
		quit:    make(chan struct{}),
	}
	l.c.procMu.Lock()
	l.c.procs[id] = p
	l.c.procMu.Unlock()
	l.c.wg.Add(1)
	go l.c.run(p)
	return nil
}

// PeerDown unroutes a departed peer's proc and signals its goroutine
// to drain.
func (l link) PeerDown(id keys.Key) {
	l.c.procMu.Lock()
	p, ok := l.c.procs[id]
	delete(l.c.procs, id)
	l.c.procMu.Unlock()
	if ok {
		close(p.quit)
	}
}

// Rename re-keys the proc serving from. The caller holds Mu's write
// lock, which licenses the p.id write.
func (l link) Rename(from, to keys.Key) {
	l.c.procMu.Lock()
	defer l.c.procMu.Unlock()
	if p, ok := l.c.procs[from]; ok {
		delete(l.c.procs, from)
		p.id = to
		l.c.procs[to] = p
	}
}

// Ship delivers one successor batch through the target peer's
// goroutine, which installs it while discoveries keep flowing on the
// mailboxes.
func (l link) Ship(_ trace.Context, b core.ReplicaBatch) (int, error) {
	p, ok := l.c.lookupProc(b.To)
	if !ok {
		return 0, errNoProc
	}
	defer p.senders.Done()
	msg := replicaMsg{batch: b, done: make(chan int, 1)}
	select {
	case p.ctrl <- msg:
		return <-msg.done, nil
	case <-p.quit:
		return 0, errNoProc
	case <-l.c.Quit:
		return 0, ErrStopped
	}
}

// StreamQuery starts a streaming subtree query: the runtime's pull
// stream over a walker entered where the seeded stream discoveries
// draw theirs from says, so a replayed workload enters the tree at the
// same nodes. The walk reads the shared network under Mu and never
// touches a peer goroutine.
func (c *Cluster) StreamQuery(ctx context.Context, spec core.QuerySpec) (*overlay.Stream, error) {
	if c.Stopped() {
		return nil, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := core.NewQueryWalker(c.Net, spec)
	if !w.Empty() {
		c.entryMu.Lock()
		c.Mu.RLock()
		if entry, ok := c.Net.RandomNodeKey(c.entryRng); ok {
			w.Start(entry)
		}
		c.Mu.RUnlock()
		c.entryMu.Unlock()
	}
	return c.Stream(ctx, w), nil
}

// Discover routes a discovery request for key through the peer
// goroutines, entering the tree at a random node.
func (c *Cluster) Discover(key keys.Key) (overlay.Result, error) {
	return c.DiscoverContext(context.Background(), key)
}

// DiscoverContext is Discover under a caller context: cancelling ctx
// aborts the in-flight routed traversal and returns the context
// error.
func (c *Cluster) DiscoverContext(ctx context.Context, key keys.Key) (overlay.Result, error) {
	if c.Stopped() {
		return overlay.Result{}, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return overlay.Result{}, err
	}
	c.entryMu.Lock()
	c.Mu.RLock()
	entry, ok := c.Net.RandomNodeKey(c.entryRng)
	c.Mu.RUnlock()
	c.entryMu.Unlock()
	if !ok {
		return overlay.Result{Key: key}, nil
	}
	began := time.Now()
	root := c.Rec.StartRoot(obs.PhaseDiscover, string(entry))
	root.SetAttr("key", string(key))
	defer root.End()
	reply := make(chan overlay.Result, 1)
	msg := discoverMsg{
		ctx:     ctx,
		key:     key,
		at:      entry,
		goingUp: true,
		tc:      root.Context(),
		res:     overlay.Result{Key: key},
		reply:   reply,
	}
	if !c.forward(msg, keys.Epsilon) {
		return overlay.Result{Key: key}, ErrStopped
	}
	select {
	case res := <-reply:
		if c.Met != nil {
			d := time.Since(began)
			c.Met.DiscoverLatency.Observe(d.Seconds())
			c.Met.RecordPhase(obs.PhaseDiscover, res.LogicalHops, d)
		}
		return res, nil
	case <-ctx.Done():
		return overlay.Result{}, ctx.Err()
	case <-c.Quit:
		return overlay.Result{}, ErrStopped
	}
}

// forward delivers msg to the peer hosting msg.at. from is the
// sending peer (ε for client injection). It returns false when the
// cluster is stopping.
func (c *Cluster) forward(msg discoverMsg, from keys.Key) bool {
	c.Mu.RLock()
	host, ok := c.Net.HostOf(msg.at)
	c.Mu.RUnlock()
	if !ok {
		msg.reply <- msg.res
		return true
	}
	if from != keys.Epsilon {
		msg.res.LogicalHops++
		if host != from {
			msg.res.PhysicalHops++
		}
	}
	p, ok := c.lookupProc(host)
	if !ok {
		// Host raced with a leave; re-resolve once more via the
		// updated topology.
		c.Mu.RLock()
		host2, ok2 := c.Net.HostOf(msg.at)
		c.Mu.RUnlock()
		if ok2 {
			p, ok = c.lookupProc(host2)
		}
		if !ok {
			msg.reply <- msg.res
			return true
		}
	}
	// The sender registration taken by lookupProc lets a departed
	// proc's drain wait out every send still holding its reference.
	defer p.senders.Done()
	select {
	case p.mailbox <- msg:
		return true
	case <-msg.ctx.Done():
		// The caller gave up: drop the request. The originator's
		// select on ctx.Done already returned the context error.
		return true
	case <-c.Quit:
		return false
	}
}

// lookupProc resolves a peer id to its proc, registering the caller
// as an in-flight sender on success (release with senders.Done).
func (c *Cluster) lookupProc(id keys.Key) (*peerProc, bool) {
	c.procMu.RLock()
	defer c.procMu.RUnlock()
	p, ok := c.procs[id]
	if ok {
		p.senders.Add(1)
	}
	return p, ok
}

// run is the peer goroutine: process discovery messages hop by hop.
// When the peer leaves or crashes it drains its mailbox before
// exiting so no in-flight discovery is stranded.
func (c *Cluster) run(p *peerProc) {
	defer c.wg.Done()
	for {
		select {
		case <-c.Quit:
			return
		case <-p.quit:
			c.drain(p)
			return
		case msg := <-p.mailbox:
			c.process(p, msg)
		case rm := <-p.ctrl:
			// A successor replica batch addressed to this peer: install
			// it under the topology write lock and acknowledge.
			rm.done <- c.InstallReplicas(rm.batch)
		}
	}
}

// drain runs after a peer departed: the proc is already unrouted, so
// every remaining message takes the re-delivery path to the node's
// new host. Exit is safe only once all senders registered before the
// unrouting have finished, since they may still append to the
// mailbox.
func (c *Cluster) drain(p *peerProc) {
	sdone := make(chan struct{})
	go func() {
		p.senders.Wait()
		close(sdone)
	}()
	for {
		select {
		case msg := <-p.mailbox:
			c.process(p, msg)
		case <-sdone:
			for {
				select {
				case msg := <-p.mailbox:
					c.process(p, msg)
				default:
					return
				}
			}
		case <-c.Quit:
			return
		}
	}
}

// process performs one routing step of the discovery walk at the node
// msg is addressed to; the transition itself is the runtime's.
func (c *Cluster) process(p *peerProc, msg discoverMsg) {
	select {
	case <-msg.ctx.Done():
		return // cancelled mid-flight: abort the traversal
	default:
	}
	c.Mu.RLock()
	self := p.id // balancing renames write p.id under the write lock
	// One span per routing hop, parented under the previous hop's so
	// the whole traversal forms a single tree rooted at the client.
	span := c.Rec.Start(msg.tc, obs.PhaseRelay, string(self))
	defer span.End()
	msg.tc = span.Context()
	peer, ok := c.Net.Peer(self)
	var node *core.Node
	if ok {
		node = peer.Nodes[msg.at]
	}
	if node == nil {
		// The node moved (churn/balancing); re-deliver to the new
		// host without counting a tree hop. A node lost to an
		// unrecovered crash has no host at all: past the redirect
		// bound the walk reports what it has (not found).
		c.Mu.RUnlock()
		msg.redirects++
		if msg.redirects > overlay.MaxRedirects {
			msg.reply <- msg.res
			return
		}
		// Re-deliver as an injection (from ε) so the redirect counts
		// no tree hop, matching the tcp engine's stale-routing relay.
		c.forward(msg, keys.Epsilon)
		return
	}
	next, done := c.StepLocked(peer, node, msg.key, &msg.goingUp, &msg.res)
	c.Mu.RUnlock()
	if done {
		msg.reply <- msg.res
		return
	}
	msg.at = next
	c.forward(msg, self)
}

// Stop terminates all peer goroutines. It is idempotent.
func (c *Cluster) Stop() {
	c.Halt()
	c.wg.Wait()
}
