// Package transport is the socket link of the overlay runtime
// (internal/overlay): every peer owns a loopback listener, and
// discovery requests hop peer-to-peer as length-prefixed binary frames
// (see frame.go) multiplexed over persistent connections (see pool.go)
// — each hop is one one-way frame on the shared socket to the next peer
// along the tree route, and the peer where the route ends answers the
// caller directly. It demonstrates the overlay as a deployable network
// service (the Grid'5000 prototype the paper leaves as future work) and
// exercises the protocol under real sockets in the tests.
//
// Membership, replication, balancing, registration, the routed request
// (hop, driver, the originator's pending table, sweeper and re-issue)
// and the query stream are the embedded overlay.Runtime's, exactly as
// in internal/live. This package owns what is specific to sockets: the
// listeners and address table behind the runtime's Link and the frames
// a hop and its answer travel as (link.go), the per-connection server
// loop (server.go), the credit-windowed frames that carry a stream's
// batches from the serving walk to the client (stream.go), the frame
// codec, the pool, and the daemon's mirror methods. Every socket comes
// from one Net (net.go): TCP, a Faults over another Net, or a test's.
package transport

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/persist"
)

// queryReq is the on-the-wire form of one streaming subtree query:
// the traversal spec plus the node to run it from. Entry is the
// covering node a hop-by-hop QROUTE phase resolved and the counters
// are the route's — the server resumes directly in the subtree walk
// and answers with STREAM batches and one STREAM_END carrying the
// traversal totals. Walk says the route ran; the server refuses a
// QUERY without it in its STREAM_END.
type queryReq struct {
	core.QuerySpec
	Entry            keys.Key
	Walk             bool
	core.QueryResult // Keys unused
}

// streamEnd is the traversal counters every STREAM and STREAM_END
// carries; Err closes a stream that ended early.
type streamEnd struct {
	core.QueryResult // Keys unused
	Err              string
}

// Options are the optional cluster construction parameters: the ones
// every runtime takes, plus what only sockets need.
type Options struct {
	overlay.Options
	// Bind is the listener bind address: "host", "host:port" or
	// "host:0"; empty preserves the historical 127.0.0.1 ephemeral
	// binding. A fixed port only suits clusters with a single local
	// listener (the daemon deployment).
	Bind string
	// AdvertiseHost overrides the host part of the addresses entered
	// in the routing table — what other processes dial when the bind
	// host (0.0.0.0) is not reachable as written.
	AdvertiseHost string
	// AllowEmpty permits starting with zero peers and no restore: a
	// daemon joining an existing overlay starts empty and populates
	// the cluster through InstallMirror.
	AllowEmpty bool
	// Control handles the control-plane frames (JOIN, LEAVE, APPLY,
	// STATUS, ADMIN): it receives the frame type and a copy of the
	// payload and returns the reply frame. Nil rejects control frames
	// with an in-band error.
	Control func(typ byte, payload []byte) (respTyp byte, resp []byte)
	// Net opens the cluster's listeners and pool connections; nil
	// means TCP. Tests pass a wrapping or an in-process Net.
	Net Net
}

// Cluster is an overlay whose peers communicate over TCP: the shared
// runtime plus one listener per local peer and the address of every
// peer.
type Cluster struct {
	overlay.Runtime
	addrs   map[keys.Key]string // guarded by Mu
	bind    string              // listener bind address template
	advHost string              // advertised host override
	control func(typ byte, payload []byte) (byte, []byte)

	// queryVisits counts tree nodes visited by server-side streaming
	// query traversals — the observable the early-exit tests watch to
	// prove a cancelled consumer actually halts the walk.
	queryVisits atomic.Int64

	pool    *connPool
	servers []*peerServer // guarded by Mu
	wg      sync.WaitGroup
}

// ErrStopped is returned by operations on a stopped cluster.
var ErrStopped = overlay.ErrStopped

// Start launches a TCP-backed overlay with one listener per capacity
// entry, all bound to 127.0.0.1 ephemeral ports.
func Start(alpha *keys.Alphabet, capacities []int, seed int64) (*Cluster, error) {
	return StartOpts(alpha, capacities, seed, Options{})
}

// StartOpts is Start with explicit Options.
func StartOpts(alpha *keys.Alphabet, capacities []int, seed int64, opts Options) (*Cluster, error) {
	if len(capacities) == 0 && !opts.Restore && !opts.AllowEmpty {
		return nil, errors.New("transport: no peers")
	}
	c := &Cluster{
		addrs:   make(map[keys.Key]string),
		bind:    opts.Bind,
		advHost: opts.AdvertiseHost,
		control: opts.Control,
	}
	c.Init(alpha, seed, opts.Options)
	// The caller is no peer: its request crosses a wire to reach the
	// entry host, and every wire transfer counts.
	c.ClientHops = 1
	if opts.Net == nil {
		opts.Net = TCP
	}
	c.pool = newConnPool(c.Quit, &c.wg, opts.Net, c.Met)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.Sweep()
	}()
	if m := c.Met; m != nil {
		// Pool depth and lifetime dials, mirrored at scrape time beside
		// the runtime's own collectors.
		m.Registry.OnScrape(func() {
			conns, dials := c.PoolStats()
			m.PoolConns.Set(float64(conns))
			m.PoolDials.Set(float64(dials))
		})
	}
	if err := c.Attach(link{c}, capacities); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// AddRemotePeerWithID joins a peer whose listener lives in another
// process: the steward drew the id (DrawJoinID) and addr — the joining
// daemon's advertised listener — enters the routing table instead of a
// locally bound one, so every routed frame, replica frame and stream
// addressed to the peer crosses the process boundary transparently.
// Every daemon, the steward included, runs this for an OpJoin record.
func (c *Cluster) AddRemotePeerWithID(id keys.Key, capacity int, addr string) error {
	if c.Stopped() {
		return ErrStopped
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if err := c.Net.JoinPeer(id, capacity, c.Rng); err != nil {
		return err
	}
	c.addrs[id] = addr
	c.Met.TopologyEvent("join")
	return nil
}

// InstallMirror replaces the cluster's overlay state wholesale with
// the mirror a steward sent: the image (captured under the steward's
// apply lock, so it needs no journal tail) restores into a fresh
// network that is then swapped in, and members becomes the address
// table. A daemon joining with an empty cluster (Options.AllowEmpty)
// passes ln, the listener it bound so the JOIN could advertise it, and
// its own peer adopts it; a running daemon — resynchronized, or a
// deposed steward rejoining under a fresh ring id — passes nil and
// keeps its one bound listener, re-keyed to self.
func (c *Cluster) InstallMirror(image []byte, members map[keys.Key]string, self keys.Key, ln net.Listener) error {
	if c.Stopped() {
		return ErrStopped
	}
	snap, err := persist.ParseImage(image)
	if err != nil {
		return err
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if ln == nil && len(c.servers) != 1 {
		return fmt.Errorf("transport: reset needs exactly one local listener, have %d", len(c.servers))
	}
	fresh := core.NewNetwork(c.Net.Alphabet, c.Net.Placement)
	fresh.Obs, fresh.Tracer = c.Met, c.Rec
	if err := fresh.RestoreFrom(&persist.LoadedState{Snapshot: snap}, c.Rng); err != nil {
		return err
	}
	if _, ok := fresh.Peer(self); !ok {
		return fmt.Errorf("transport: mirror state lacks own peer %q", self)
	}
	fresh.AttachJournal(c.Store)
	c.Net = fresh
	c.addrs = make(map[keys.Key]string, len(members)+1)
	for id, addr := range members {
		if id != self {
			c.addrs[id] = addr
		}
	}
	if ln != nil {
		c.adoptListenerLocked(self, ln)
	} else {
		c.servers[0].id = self
		c.addrs[self] = c.servers[0].addr
	}
	return nil
}

// MirrorImage returns the overlay image of the current state built
// from the tree, for a steward's Mirror where no store folds one (see
// persist.Store.Mirror). Only the capture holds the lock, read side;
// the encode runs after it.
func (c *Cluster) MirrorImage() []byte {
	c.Mu.RLock()
	peers, cat := c.Net.RingState(), c.Net.Catalogue()
	c.Mu.RUnlock()
	return persist.AppendImage(nil, 0, peers, cat)
}

// ControlRoundTrip sends one control frame (JOIN, LEAVE, APPLY,
// STATUS, ADMIN) on the pooled connection to addr and returns the
// reply frame. The persistent connection doubles as the peering
// probe's re-dial path: a broken link evicts from the pool and the
// next round-trip dials fresh.
func (c *Cluster) ControlRoundTrip(ctx context.Context, addr string, typ byte, payload []byte) (byte, []byte, error) {
	if c.Stopped() {
		return 0, nil, ErrStopped
	}
	msg, err := c.pool.rawRoundTrip(ctx, addr, func(fc *frameConn, id uint64) error {
		return fc.writeRaw(typ, id, payload)
	})
	if err != nil {
		return 0, nil, err
	}
	return msg.typ, msg.payload, nil
}

// DropEndpointAddr evicts the pooled connection to addr (without
// touching any local listener). The daemon layer uses it when a
// remote member departs or is declared crashed, so sends to the stale
// address fail fast and re-resolve.
func (c *Cluster) DropEndpointAddr(addr string) {
	c.pool.evict(addr)
}

// Addrs returns the listen addresses by peer id.
func (c *Cluster) Addrs() map[keys.Key]string {
	c.Mu.RLock()
	defer c.Mu.RUnlock()
	return maps.Clone(c.addrs)
}

// PoolStats reports the client connection pool's live connection and
// lifetime dial counts — the amortization the persistent wire
// protocol exists for (and the leak check: zero connections after
// Stop).
func (c *Cluster) PoolStats() (conns int, dials int64) {
	return c.pool.size(), c.pool.dials.Load()
}

// Stop closes every listener, server connection and pooled client
// connection, then waits for handlers and demux loops to finish; the
// pool drains to zero.
func (c *Cluster) Stop() {
	if c.Halt() {
		c.Mu.Lock()
		servers := append([]*peerServer(nil), c.servers...)
		c.Mu.Unlock()
		for _, ps := range servers {
			ps.close()
		}
		c.pool.closeAll()
	}
	c.wg.Wait()
}
