// Package live is the in-process link of the overlay runtime
// (internal/overlay): one goroutine per peer and a channel mailbox each
// — the shape a deployment of the paper's protocol would take (the
// authors' future-work prototype).
//
// Membership, replication, balancing, registration and the routed
// request end to end — the hop, the driver that takes it through a
// peer, the originator and its re-issue — are the embedded
// overlay.Runtime's. This package owns what is specific to goroutines
// and channels: the peer procs behind the runtime's Link (spawn, retire
// and drain, re-key, replica batches on the ctrl channel) and how a hop
// and its answer travel: a mailbox push that never blocks the pusher,
// and a direct call into the runtime's pending table. A subtree query
// is the runtime's own (Runtime.StreamQuery): the walk reads the
// shared network under the read lock and needs no goroutine.
// Correctness against the sequential engine is checked by differential
// tests, and the package is exercised under the race detector.
package live

import (
	"context"
	"errors"
	"sync"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

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
	mailbox chan overlay.Hop
	// ctrl delivers successor replica batches to the peer goroutine,
	// off the discovery fast path.
	ctrl chan replicaMsg
	// quit is closed when the peer leaves or crashes; the goroutine
	// then drains its mailbox and exits.
	quit chan struct{}
	// senders tracks in-flight sends that hold a reference to this
	// proc, so draining can wait for the last possible push.
	senders sync.WaitGroup
}

// Cluster is a running overlay: the shared runtime plus one proc per
// peer.
type Cluster struct {
	overlay.Runtime

	procMu sync.RWMutex
	procs  map[keys.Key]*peerProc // guarded by procMu

	wg sync.WaitGroup
}

// ErrStopped is returned by operations on a stopped cluster.
var ErrStopped = overlay.ErrStopped

// errNoProc fails a send whose target has no goroutine (any more): the
// runtime installs a replica batch directly, and answers a hop with
// Retry so its originator re-issues it.
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
	c := &Cluster{procs: make(map[keys.Key]*peerProc)}
	c.Init(alpha, seed, opts)
	// Entry points come from a second stream, so a replayed workload
	// enters the tree at the same nodes whatever it writes in between.
	c.SeedEntries(seed + 1)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.Sweep()
	}()
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
		mailbox: make(chan overlay.Hop, mailboxDepth),
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

// Send pushes the hop into peer to's mailbox. The pusher is often a
// peer goroutine — possibly the very one that drains that mailbox — and
// a goroutine that drains a mailbox must never block on one: a full
// mailbox hands the push to a transient goroutine, so the hops keep
// moving however many are in flight. There are never more of those
// goroutines than hops, and a caller has one hop in flight per attempt.
func (l link) Send(_ context.Context, to keys.Key, h overlay.Hop) error {
	p, ok := l.c.lookupProc(to)
	if !ok {
		return errNoProc
	}
	// The sender registration taken by lookupProc lets a departed
	// proc's drain wait out every push still holding its reference.
	select {
	case p.mailbox <- h:
		p.senders.Done()
	default:
		go func() {
			defer p.senders.Done()
			select {
			case p.mailbox <- h:
			case <-l.c.Quit:
			}
		}()
	}
	return nil
}

// Reply hands the answer to the originator, which lives in this
// process.
func (l link) Reply(h overlay.Hop, rep overlay.Reply) error {
	l.c.Complete(h.Origin, rep)
	return nil
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

// run is the peer goroutine: it takes each hop in its mailbox through
// the runtime's driver. When the peer leaves or crashes it drains its
// mailbox before exiting so no in-flight discovery is stranded.
func (c *Cluster) run(p *peerProc) {
	defer c.wg.Done()
	for {
		select {
		case <-c.Quit:
			return
		case <-p.quit:
			c.drain(p)
			return
		case h := <-p.mailbox:
			c.ServeHop(&p.id, &h)
		case rm := <-p.ctrl:
			// A successor replica batch addressed to this peer: install
			// it under the topology write lock and acknowledge.
			rm.done <- c.InstallReplicas(rm.batch)
		}
	}
}

// drain runs after a peer departed: the proc is already unrouted and
// its id no longer on the ring, so every remaining hop is answered
// Retry and re-issued by its originator. Exit is safe only once all
// senders registered before the unrouting have finished, since they
// may still append to the mailbox.
func (c *Cluster) drain(p *peerProc) {
	sdone := make(chan struct{})
	go func() {
		p.senders.Wait()
		close(sdone)
	}()
	for {
		select {
		case h := <-p.mailbox:
			c.ServeHop(&p.id, &h)
		case <-sdone:
			for {
				select {
				case h := <-p.mailbox:
					c.ServeHop(&p.id, &h)
				default:
					return
				}
			}
		case <-c.Quit:
			return
		}
	}
}

// Stop terminates all peer goroutines. It is idempotent.
func (c *Cluster) Stop() {
	c.Halt()
	c.wg.Wait()
}
