// Package transport runs the DLPT discovery path over real TCP
// connections: every peer owns a loopback listener, and discovery
// requests hop peer-to-peer as length-prefixed binary frames (see
// frame.go) multiplexed over persistent connections (see pool.go) —
// each hop is one one-way frame on the shared socket to the next peer
// along the tree route, and the peer where the route ends answers the
// caller directly. It demonstrates the overlay
// as a deployable network service (the Grid'5000 prototype the paper
// leaves as future work) and exercises the protocol under real
// sockets in the tests.
//
// Topology and tree state are shared through the embedded protocol
// core exactly as in internal/live; what travels on the wire is the
// routing dialogue: request in, forwarded hop, one response back to
// the originator.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/obs"
	"dlpt/internal/persist"
	"dlpt/internal/trace"
	"dlpt/internal/trie"
)

// route is the part of a routed frame every hop handles the same way:
// where the walk stands, its counters, and who waits for the answer.
type route struct {
	At      keys.Key
	Logical int
	// Physical counts TCP hops (every wire transfer of the request is
	// physical; the reply is not a hop).
	Physical int
	// Redirects counts forwards for a node the addressed peer does not
	// host (stale routing after churn or balancing). A node lost to
	// an unrecovered crash would be forwarded in a cycle forever, so
	// past maxRedirects the walk reports not found.
	Redirects int
	// Origin and ReplyTo name the caller: the pending id it waits on
	// and the advertised address of one of its listeners. The peer
	// where routing ends writes its answer there, under that id.
	Origin  uint64
	ReplyTo string
}

// request is a discovery on the wire.
type request struct {
	Key     keys.Key
	GoingUp bool
	route
}

// maxRedirects bounds stale-routing forwards per request.
const maxRedirects = 8

// response is the on-the-wire result of a routed frame. A discovery
// is answered with Found and Values. A query route is answered with
// the covering node to open the walk at (Found, Anchor), or with the
// end of the query when the route hit a node lost to churn (!Found —
// the walk yields nothing, with the route's counters as totals,
// exactly as the walker behaves at a vanished node).
type response struct {
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
	// Retry marks an Err that says nothing about the key: the hop could
	// not pass the frame on, and the originator should re-issue it from
	// a fresh entry node.
	Retry bool
}

// queryReq is the on-the-wire form of one streaming subtree query:
// the traversal spec plus the node to run it from. With Walk set,
// Entry is the covering node a hop-by-hop QROUTE phase resolved and
// Logical/Physical/Visited carry the route's counters — the server
// resumes directly in the subtree walk. Without Walk (not produced
// by current clients, kept for protocol completeness) the server
// runs all three phases from Entry. Either way it answers with
// STREAM batches and one STREAM_END carrying the traversal totals.
type queryReq struct {
	Range          bool
	Prefix, Lo, Hi keys.Key
	Limit          int
	Entry          keys.Key
	Walk           bool
	Logical        int
	Physical       int
	Visited        int
}

// qroute is the climb/descend route of a subtree query on the wire:
// the anchor the route narrows towards, the current node, and the
// walker counters accumulated so far. It is forwarded between
// listeners exactly like discovery requests are, so the query's first
// phases read only tree state the addressed peer hosts.
type qroute struct {
	Anchor     keys.Key
	Descending bool
	Visited    int
	route
}

// hop is one routed frame in memory, at the peer it is addressed to or
// at its originator: a discovery REQUEST or a query QROUTE — typ says
// which of req and rq is live.
type hop struct {
	typ  byte
	self keys.Key      // the addressed peer; unset at the originator
	tc   trace.Context // trace parent of whatever handles the frame next
	req  request
	rq   qroute
}

func (h *hop) route() *route {
	if h.typ == frameRequest {
		return &h.req.route
	}
	return &h.rq.route
}

// streamEnd closes one streaming query on the wire.
type streamEnd struct {
	Logical, Physical, Visited int
	Err                        string
}

func (e *streamEnd) result() core.QueryResult {
	return core.QueryResult{LogicalHops: e.Logical, PhysicalHops: e.Physical, NodesVisited: e.Visited}
}

// Result is the outcome of a TCP-routed discovery.
type Result struct {
	Key          keys.Key
	Found        bool
	Values       []string
	LogicalHops  int
	PhysicalHops int
	// Dropped reports that a saturated peer ignored the request
	// (capacity gating).
	Dropped bool
}

// peerServer is one peer's TCP endpoint. Accepted connections are
// persistent (one per remote client, many in-flight requests) and
// tracked so removing or crashing the peer can close them: a pooled
// client connection to a dead peer must fail fast, not linger.
type peerServer struct {
	id   keys.Key
	addr string
	ln   net.Listener

	cmu    sync.Mutex
	conns  map[net.Conn]struct{} // guarded by cmu
	closed bool                  // guarded by cmu
}

// track registers an accepted connection; it reports false when the
// server already closed (the caller drops the connection).
func (ps *peerServer) track(conn net.Conn) bool {
	ps.cmu.Lock()
	defer ps.cmu.Unlock()
	if ps.closed {
		return false
	}
	ps.conns[conn] = struct{}{}
	return true
}

func (ps *peerServer) untrack(conn net.Conn) {
	ps.cmu.Lock()
	delete(ps.conns, conn)
	ps.cmu.Unlock()
}

// close shuts the listener and every accepted connection down.
func (ps *peerServer) close() {
	ps.cmu.Lock()
	ps.closed = true
	conns := make([]net.Conn, 0, len(ps.conns))
	for conn := range ps.conns {
		conns = append(conns, conn)
	}
	ps.cmu.Unlock()
	_ = ps.ln.Close()
	for _, conn := range conns {
		_ = conn.Close()
	}
}

// Options are the optional cluster construction parameters.
type Options struct {
	// Placement picks ring identifiers for joining peers; nil draws
	// uniformly random identifiers.
	Placement lb.Strategy
	// Gate enforces per-peer capacity on the discovery path: every
	// visit consumes capacity and saturated peers drop requests.
	Gate bool
	// Persist, when non-nil, makes the cluster durable: Replicate
	// writes fsynced snapshots and catalogue mutations append to the
	// journal.
	Persist *persist.Store
	// Restore rebuilds the overlay from Persist instead of starting
	// fresh from the capacities (which are then ignored).
	Restore bool
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
	// Obs, when non-nil, instruments the cluster: traversal and wire
	// counters feed this bundle and scrape-time collectors mirror the
	// pool, peer-load and replication state into its registry.
	Obs *obs.Metrics
	// Trace, when non-nil, records per-hop spans for every routed
	// traversal, replica shipment and topology event; trace contexts
	// propagate across hosts in the frame header extension.
	Trace *trace.Recorder
	// Faults, when non-nil, injects deterministic faults into the
	// outbound frame path: partitions cut dials, typed rules drop,
	// delay or duplicate control frames. Test-only; nil costs one nil
	// check per send.
	Faults *Faults
}

// Cluster is an overlay whose peers communicate over TCP.
type Cluster struct {
	mu  sync.RWMutex
	net *core.Network // guarded by mu
	// rng belongs to writers under mu.Lock; readers drawing an entry
	// node share it under mu.RLock plus entryMu, which orders them
	// among themselves.
	rng     *rand.Rand // guarded by mu
	entryMu sync.Mutex
	addrs   map[keys.Key]string // guarded by mu
	place   lb.Strategy         // join placement hook; nil = uniform random
	gate    bool                // enforce peer capacity on discoveries
	store   *persist.Store      // durability layer; nil = in-memory only
	bind    string              // listener bind address template
	advHost string              // advertised host override
	control func(typ byte, payload []byte) (byte, []byte)
	met     *obs.Metrics    // nil disables metrics
	rec     *trace.Recorder // nil disables span recording
	faults  *Faults         // nil injects nothing

	// queryVisits counts tree nodes visited by server-side streaming
	// query traversals — the observable the early-exit tests watch to
	// prove a cancelled consumer actually halts the walk.
	queryVisits atomic.Int64

	// The originator's side of the routed path: calls awaiting their
	// direct reply by id, and the sweeper's clock that ages them.
	pmu      sync.Mutex
	pending  map[uint64]*pendingCall // guarded by pmu
	lastCall uint64                  // guarded by pmu
	tick     uint64                  // guarded by pmu

	pool    *connPool
	servers []*peerServer
	wg      sync.WaitGroup
	quit    chan struct{}
	once    sync.Once
}

// ErrStopped is returned by operations on a stopped cluster.
var ErrStopped = errors.New("transport: cluster stopped")

// ErrNoReply is returned by a discovery or query none of whose
// attempts was answered: each time the frame or its reply was lost, or
// a hop could not pass the frame on (a crashed or partitioned hop, an
// unreachable reply address).
var ErrNoReply = errors.New("transport: no reply from the overlay")

// Start launches a TCP-backed overlay with one listener per capacity
// entry, all bound to 127.0.0.1 ephemeral ports.
func Start(alpha *keys.Alphabet, capacities []int, seed int64) (*Cluster, error) {
	return StartOpts(alpha, capacities, seed, Options{})
}

// StartOpts is Start with explicit Options.
func StartOpts(alpha *keys.Alphabet, capacities []int, seed int64, opts Options) (*Cluster, error) {
	if len(capacities) == 0 && !opts.Restore && !opts.AllowEmpty {
		return nil, fmt.Errorf("transport: no peers")
	}
	c := &Cluster{
		net:     core.NewNetwork(alpha, core.PlacementLexicographic),
		rng:     rand.New(rand.NewSource(seed)),
		addrs:   make(map[keys.Key]string),
		place:   opts.Placement,
		gate:    opts.Gate,
		store:   opts.Persist,
		bind:    opts.Bind,
		advHost: opts.AdvertiseHost,
		control: opts.Control,
		met:     opts.Obs,
		rec:     opts.Trace,
		faults:  opts.Faults,
		pending: make(map[uint64]*pendingCall),
		quit:    make(chan struct{}),
	}
	// The shared core inherits the instrumentation so every query
	// walker built over this network records phase spans and counters.
	c.net.Obs = c.met
	c.net.Tracer = c.rec
	c.pool = newConnPool(c.quit, &c.wg)
	c.pool.met = c.met
	c.pool.faults = c.faults
	c.wg.Add(1)
	go c.sweep()
	c.registerCollectors()
	if opts.Restore {
		if c.store == nil {
			c.Stop()
			return nil, fmt.Errorf("transport: restore without a persistence store")
		}
		if err := c.net.RestoreFromStore(c.store, c.rng); err != nil {
			c.Stop()
			return nil, err
		}
		c.mu.Lock()
		for _, id := range c.net.PeerIDs() {
			if err := c.startListenerLocked(id); err != nil {
				c.mu.Unlock()
				c.Stop()
				return nil, err
			}
		}
		c.mu.Unlock()
	} else {
		for _, capacity := range capacities {
			if _, err := c.AddPeer(capacity); err != nil {
				c.Stop()
				return nil, err
			}
		}
	}
	// Callers of the mutation paths hold c.mu, serializing appends.
	c.net.AttachJournal(c.store)
	return c, nil
}

// registerCollectors mirrors state the hot paths do not instrument
// directly into the registry at scrape time: pool depth and lifetime
// dials, the per-peer visit load and node gauges (replaced wholesale
// so balance renames never leave stale series), and the core's
// never-reset replication counters (mirrored rather than incremented,
// so a scrape across crash/recover or Balance sees them monotonic).
func (c *Cluster) registerCollectors() {
	if c.met == nil {
		return
	}
	m := c.met
	m.Registry.OnScrape(func() {
		conns, dials := c.PoolStats()
		m.PoolConns.Set(float64(conns))
		m.PoolDials.Set(float64(dials))
		sums := c.PeerSummaries()
		loads := make(map[string]float64, len(sums))
		nodes := make(map[string]float64, len(sums))
		for _, s := range sums {
			loads[string(s.ID)] = float64(s.LoadPrev)
			nodes[string(s.ID)] = float64(s.Nodes)
		}
		m.Registry.ReplaceGauges(obs.SeriesVisitLoad,
			"Discovery visits received per peer in the last load unit.", "peer", loads)
		m.Registry.ReplaceGauges(obs.SeriesPeerNodes,
			"Tree nodes hosted per peer.", "peer", nodes)
		rs := c.ReplicationStats()
		m.ReplicaSnapshotMsgs.Set(float64(rs.SnapshotMsgs))
		m.ReplicaTransferMsgs.Set(float64(rs.TransferMsgs))
		m.ReplicaTransferNodes.Set(float64(rs.TransferredNodes))
	})
}

// NormalizeBind canonicalizes a bind address: empty preserves the
// historical loopback-ephemeral binding, and a bare host gets an
// ephemeral port.
func NormalizeBind(bind string) string {
	if bind == "" {
		return "127.0.0.1:0"
	}
	if _, _, err := net.SplitHostPort(bind); err != nil {
		return net.JoinHostPort(bind, "0")
	}
	return bind
}

// AdvertiseAddr rewrites a listener's bound address into the form
// other processes should dial: an explicit advertise host wins, an
// unspecified bind host (empty, 0.0.0.0, ::) falls back to loopback,
// and the result is JoinHostPort-canonical — the routing table and
// the connection pool key by this string, so one peer must always
// advertise byte-identically.
func AdvertiseAddr(listen, advertiseHost string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	if advertiseHost != "" {
		host = advertiseHost
	} else if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// startListenerLocked binds a fresh listener for peer id on the
// cluster's bind address (loopback-ephemeral by default) and starts
// serving it. Callers hold c.mu: the address table entry must become
// visible atomically with the peer's ring membership, or a concurrent
// discovery can resolve the peer as host and find no address.
func (c *Cluster) startListenerLocked(id keys.Key) error {
	ln, err := net.Listen("tcp", NormalizeBind(c.bind))
	if err != nil {
		return err
	}
	c.adoptListenerLocked(id, ln)
	return nil
}

// adoptListenerLocked wires an already-bound listener up as peer id's
// endpoint. Callers hold c.mu.
func (c *Cluster) adoptListenerLocked(id keys.Key, ln net.Listener) {
	ps := &peerServer{id: id, addr: AdvertiseAddr(ln.Addr().String(), c.advHost), ln: ln,
		conns: make(map[net.Conn]struct{})}
	c.addrs[id] = ps.addr
	c.servers = append(c.servers, ps)
	c.wg.Add(1)
	go c.serve(ps)
}

// AddPeer joins one peer: a protocol join plus a fresh TCP listener.
func (c *Cluster) AddPeer(capacity int) (keys.Key, error) {
	select {
	case <-c.quit:
		return "", ErrStopped
	default:
	}
	c.mu.Lock()
	var id keys.Key
	if c.place != nil {
		id = c.place.PlaceJoin(c.net, c.rng, capacity)
	} else {
		for {
			id = c.net.Alphabet.RandomKey(c.rng, 12, 12)
			if _, exists := c.net.Peer(id); !exists {
				break
			}
		}
	}
	if err := c.net.JoinPeer(id, capacity, c.rng); err != nil {
		c.mu.Unlock()
		return "", err
	}
	err := c.startListenerLocked(id)
	c.mu.Unlock()
	if err != nil {
		return "", err
	}
	c.met.TopologyEvent("join")
	return id, nil
}

// JoinRemotePeer performs the protocol join for a peer whose listener
// lives in another process: the ring id is drawn exactly as AddPeer
// draws it, but addr — the joining daemon's advertised listener —
// enters the routing table instead of a locally bound one. Every
// routed frame, replica frame and stream addressed to the peer then
// crosses the process boundary transparently.
func (c *Cluster) JoinRemotePeer(capacity int, addr string) (keys.Key, error) {
	select {
	case <-c.quit:
		return "", ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var id keys.Key
	if c.place != nil {
		id = c.place.PlaceJoin(c.net, c.rng, capacity)
	} else {
		for {
			id = c.net.Alphabet.RandomKey(c.rng, 12, 12)
			if _, exists := c.net.Peer(id); !exists {
				break
			}
		}
	}
	if err := c.net.JoinPeer(id, capacity, c.rng); err != nil {
		return "", err
	}
	c.addrs[id] = addr
	c.met.TopologyEvent("join")
	return id, nil
}

// AddRemotePeerWithID mirrors a join another process already
// serialized: the assigned id and advertised address are given, only
// the deterministic tree-side join runs locally. The daemon's APPLY
// replication uses this to keep member mirrors convergent.
func (c *Cluster) AddRemotePeerWithID(id keys.Key, capacity int, addr string) error {
	select {
	case <-c.quit:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.net.JoinPeer(id, capacity, c.rng); err != nil {
		return err
	}
	c.addrs[id] = addr
	c.met.TopologyEvent("join")
	return nil
}

// InstallMirror populates an empty cluster (Options.AllowEmpty) with
// a full overlay mirror: the peers and nodes of a state snapshot the
// steward captured, the advertised address of every remote member,
// and this process's own peer, which adopts the pre-bound listener ln
// (bound before the join so the JOIN frame could advertise it). The
// snapshot was captured under the steward's apply lock, so no journal
// tail is needed: the mirror is consistent as of the handshake's
// sequence number.
func (c *Cluster) InstallMirror(peers []persist.PeerState, nodes []persist.NodeState,
	members map[keys.Key]string, self keys.Key, ln net.Listener) error {
	select {
	case <-c.quit:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &persist.LoadedState{Snapshot: &persist.Snapshot{Peers: peers, Nodes: nodes}}
	if err := c.net.RestoreFrom(st, c.rng); err != nil {
		return err
	}
	if _, ok := c.net.Peer(self); !ok {
		return fmt.Errorf("transport: mirror state lacks own peer %q", self)
	}
	for id, addr := range members {
		if id != self {
			c.addrs[id] = addr
		}
	}
	c.adoptListenerLocked(self, ln)
	return nil
}

// ResetToMirror replaces a running daemon cluster's overlay state
// wholesale with a fresh mirror: a member too far behind the new
// steward to reconcile by replay, or a deposed steward rejoining
// under a fresh ring id, installs the snapshot exactly like a fresh
// HELLO — but keeps its already-bound listener, which is re-keyed to
// self. Requires the single-local-listener shape of the daemon
// deployment.
func (c *Cluster) ResetToMirror(peers []persist.PeerState, nodes []persist.NodeState,
	members map[keys.Key]string, self keys.Key) error {
	select {
	case <-c.quit:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.servers) != 1 {
		return fmt.Errorf("transport: reset needs exactly one local listener, have %d", len(c.servers))
	}
	fresh := core.NewNetwork(c.net.Alphabet, c.net.Placement)
	fresh.Obs = c.met
	fresh.Tracer = c.rec
	st := &persist.LoadedState{Snapshot: &persist.Snapshot{Peers: peers, Nodes: nodes}}
	if err := fresh.RestoreFrom(st, c.rng); err != nil {
		return err
	}
	if _, ok := fresh.Peer(self); !ok {
		return fmt.Errorf("transport: mirror state lacks own peer %q", self)
	}
	c.net = fresh
	c.net.AttachJournal(c.store)
	ps := c.servers[0]
	c.addrs = make(map[keys.Key]string, len(members)+1)
	for id, addr := range members {
		if id != self {
			c.addrs[id] = addr
		}
	}
	ps.id = self
	c.addrs[self] = ps.addr
	return nil
}

// ReplicateLocal runs one replication tick wholly in-process: plan,
// install, compact, and on a durable cluster the fsynced snapshot
// rotation — the core path engine/local uses. The daemon deployment
// calls this on every process: each holds a full mirror, so shipping
// REPLICA frames to peers that already have identical state would be
// pure overhead.
func (c *Cluster) ReplicateLocal() (int, error) {
	select {
	case <-c.quit:
		return 0, ErrStopped
	default:
	}
	c.mu.Lock()
	n := c.net.Replicate()
	var pending *persist.PendingSnapshot
	var peers []persist.PeerState
	var cat *core.CatalogueCapture
	var stall time.Duration
	if c.store != nil {
		start := time.Now()
		peers, cat = c.net.CaptureSnapshot()
		var err error
		if pending, err = c.store.BeginSnapshot(); err != nil {
			c.mu.Unlock()
			return n, err
		}
		stall = time.Since(start)
	}
	c.mu.Unlock()
	if pending != nil {
		if _, err := pending.Commit(peers, cat); err != nil {
			return n, err
		}
		c.met.MarkSnapshot(stall, pending.Bytes(), cat.Len())
	}
	c.met.MarkReplicated()
	return n, nil
}

// PersistStateView captures the persistable overlay state — the ring
// and the full catalogue — under the read lock. The steward answers
// JOIN with this as the joiner's initial mirror.
func (c *Cluster) PersistStateView() ([]persist.PeerState, []persist.NodeState) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.PersistState()
}

// ControlRoundTrip sends one control frame (JOIN, LEAVE, APPLY,
// STATUS, ADMIN) on the pooled connection to addr and returns the
// reply frame. The persistent connection doubles as the peering
// probe's re-dial path: a broken link evicts from the pool and the
// next round-trip dials fresh.
func (c *Cluster) ControlRoundTrip(ctx context.Context, addr string, typ byte, payload []byte) (byte, []byte, error) {
	select {
	case <-c.quit:
		return 0, nil, ErrStopped
	default:
	}
	dup, err := c.faultGate(ctx, typ, addr)
	if err != nil {
		return 0, nil, err // injected partition or drop
	}
	pc, err := c.pool.get(ctx, addr)
	if err != nil {
		return 0, nil, err
	}
	msg, err := c.pool.rawRoundTrip(ctx, pc, func(id uint64) error {
		if err := pc.fc.writeRaw(typ, id, payload); err != nil {
			return err
		}
		if dup {
			// Duplicate delivery: the receiver handles the frame twice;
			// the demux keeps the first reply for this id and drops the
			// second.
			return pc.fc.writeRaw(typ, id, payload)
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return msg.typ, msg.payload, nil
}

// faultGate consults the fault plan for one outbound frame: it sleeps
// an injected delay and reports whether to write the frame twice, or
// the injected partition or drop as an error. Nil plan: nothing.
func (c *Cluster) faultGate(ctx context.Context, typ byte, addr string) (dup bool, err error) {
	if c.faults == nil {
		return false, nil
	}
	act, err := c.faults.onSend(typ, addr)
	if err != nil {
		return false, err
	}
	if act.delay > 0 {
		select {
		case <-time.After(act.delay):
		case <-ctx.Done():
			return false, ctx.Err()
		case <-c.quit:
			return false, ErrStopped
		}
	}
	return act.dup, nil
}

// DropEndpointAddr evicts the pooled connection to addr (without
// touching any local listener). The daemon layer uses it when a
// remote member departs or is declared crashed, so sends to the stale
// address fail fast and re-resolve.
func (c *Cluster) DropEndpointAddr(addr string) {
	c.pool.evict(addr)
}

// RemovePeer removes a peer gracefully: its tree nodes hand off, its
// listener closes, and later traffic re-resolves to the new hosts
// (the reconnect cascade is driven by the per-hop HostOf lookups).
func (c *Cluster) RemovePeer(id keys.Key) error {
	select {
	case <-c.quit:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	if err := c.net.LeavePeer(id); err != nil {
		c.mu.Unlock()
		return err
	}
	ps := c.dropServerLocked(id)
	c.mu.Unlock()
	c.dropEndpoint(ps)
	c.met.TopologyEvent("leave")
	return nil
}

// FailPeer crashes a peer: node states vanish without transfer and
// the listener closes. The tree stays degraded until Recover runs.
func (c *Cluster) FailPeer(id keys.Key) error {
	select {
	case <-c.quit:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	if err := c.net.FailPeer(id); err != nil {
		c.mu.Unlock()
		return err
	}
	ps := c.dropServerLocked(id)
	c.mu.Unlock()
	c.dropEndpoint(ps)
	c.met.TopologyEvent("crash")
	return nil
}

// dropServerLocked removes the listener bookkeeping for id and
// returns its server for closing. Callers hold c.mu.
func (c *Cluster) dropServerLocked(id keys.Key) *peerServer {
	delete(c.addrs, id)
	for i, ps := range c.servers {
		if ps.id == id {
			c.servers = append(c.servers[:i], c.servers[i+1:]...)
			return ps
		}
	}
	return nil
}

// dropEndpoint tears a departed peer's endpoint down: listener,
// accepted server connections, and the pooled client connection.
// Hops holding the stale address fail fast and re-resolve through
// the redirect/retry bounds instead of waiting on a dead socket.
func (c *Cluster) dropEndpoint(ps *peerServer) {
	if ps == nil {
		return
	}
	ps.close()
	c.pool.evict(ps.addr)
}

// Recover restores crashed node state from the successor replicas and
// rebuilds the canonical tree structure.
func (c *Cluster) Recover() (restored int, lost []keys.Key, err error) {
	select {
	case <-c.quit:
		return 0, nil, ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	restored, lost = c.net.Recover()
	c.met.TopologyEvent("recover")
	return restored, lost, nil
}

// Replicate snapshots every tree node to its host's ring successor.
// Each successor batch travels the real wire path: a REPLICA frame on
// the pooled connection to the target peer's listener, installed
// server-side under the topology write lock and acknowledged with a
// RESPONSE frame. A batch whose target cannot be reached (departed
// peer, racing listener close) falls back to a direct install, which
// re-routes per entry. On a durable cluster the tick finishes by
// writing the fsynced on-disk snapshot.
func (c *Cluster) Replicate() (int, error) {
	select {
	case <-c.quit:
		return 0, ErrStopped
	default:
	}
	c.mu.Lock()
	plan := c.net.ReplicaPlan()
	addrs := make([]string, len(plan))
	for i, b := range plan {
		addrs[i] = c.addrs[b.To]
	}
	c.mu.Unlock()
	ctx := context.Background()
	tick := c.rec.StartRoot("replicate", "")
	total := 0
	for i, b := range plan {
		n, err := c.shipReplicas(ctx, tick.Context(), addrs[i], b)
		if err != nil {
			// Unreachable target: install directly; AcceptReplicas
			// re-routes entries whose placement changed meanwhile.
			// Delivery is at-least-once — if the connection died after
			// the server installed the batch but before its ack, the
			// retry re-installs idempotently and the snapshot counters
			// count the batch twice (only on ticks with connection
			// failures).
			c.mu.Lock()
			n = c.net.AcceptReplicas(b.From, b.To, b.Infos)
			c.mu.Unlock()
		}
		total += n
	}
	tick.SetAttr("batches", strconv.Itoa(len(plan)))
	tick.SetAttr("snapshots", strconv.Itoa(total))
	tick.End()
	c.met.MarkReplicated()
	c.mu.Lock()
	c.net.CompactReplicas()
	var pending *persist.PendingSnapshot
	var peers []persist.PeerState
	var cat *core.CatalogueCapture
	var stall time.Duration
	if c.store != nil {
		// Capture and journal rotation under c.mu, atomically (see
		// the live cluster's Replicate); encode + fsync off-lock.
		start := time.Now()
		peers, cat = c.net.CaptureSnapshot()
		var err error
		if pending, err = c.store.BeginSnapshot(); err != nil {
			c.mu.Unlock()
			return total, err
		}
		stall = time.Since(start)
	}
	c.mu.Unlock()
	if pending != nil {
		if _, err := pending.Commit(peers, cat); err != nil {
			return total, err
		}
		c.met.MarkSnapshot(stall, pending.Bytes(), cat.Len())
	}
	return total, nil
}

// shipReplicas sends one successor batch as a REPLICA frame over the
// pooled connection to addr and waits for the acknowledging RESPONSE
// (whose Logical field carries the installed count).
func (c *Cluster) shipReplicas(ctx context.Context, tc trace.Context, addr string, b core.ReplicaBatch) (int, error) {
	if addr == "" {
		return 0, fmt.Errorf("transport: no address for replica target %q", b.To)
	}
	pc, err := c.pool.get(ctx, addr)
	if err != nil {
		return 0, err
	}
	span := c.rec.Start(tc, "replica", string(b.To))
	span.SetAttr("snapshots", strconv.Itoa(len(b.Infos)))
	msg, err := c.pool.rawRoundTrip(ctx, pc, func(id uint64) error {
		return pc.fc.writeReplica(id, span.Context(), &b)
	})
	span.End()
	if err != nil {
		return 0, err
	}
	var resp response
	if err := decodeResponse(msg.payload, &resp); err != nil {
		return 0, err
	}
	if resp.Err != "" {
		return 0, errors.New(resp.Err)
	}
	return resp.Logical, nil
}

// ResetUnit ends the current load-accounting time unit.
func (c *Cluster) ResetUnit() error {
	select {
	case <-c.quit:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.net.ResetUnit()
	return nil
}

// Balance runs one round of the named load-balancing strategy, then
// rewires the listener bookkeeping to the renamed peer ids so forwards
// keep resolving.
func (c *Cluster) Balance(strategy string) (int, error) {
	strat, err := lb.ByName(strategy)
	if err != nil {
		return 0, err
	}
	select {
	case <-c.quit:
		return 0, ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	moves, rerr := lb.RunRound(c.net, strat)
	c.rewireServersLocked()
	c.met.TopologyEvent("balance")
	return moves, rerr
}

// rewireServersLocked re-keys the address table and server ids to the
// current peers after balancing renames. Which listener serves which
// id is immaterial — all state lives in the shared network — so
// orphaned servers pair with unclaimed ids in sorted order. Callers
// hold c.mu.
func (c *Cluster) rewireServersLocked() {
	current := make(map[keys.Key]bool, c.net.NumPeers())
	for _, id := range c.net.PeerIDs() {
		current[id] = true
	}
	claimed := make(map[keys.Key]bool, len(c.servers))
	var orphans []*peerServer
	for _, ps := range c.servers {
		if current[ps.id] {
			claimed[ps.id] = true
		} else {
			orphans = append(orphans, ps)
		}
	}
	if len(orphans) == 0 {
		return
	}
	var free []keys.Key
	for id := range current {
		if !claimed[id] {
			free = append(free, id)
		}
	}
	keys.SortKeys(free)
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].id < orphans[j].id })
	for i, ps := range orphans {
		if i >= len(free) {
			break
		}
		delete(c.addrs, ps.id)
		ps.id = free[i]
		c.addrs[ps.id] = ps.addr
	}
}

// PeerSummaries returns one summary per peer in ring order.
func (c *Cluster) PeerSummaries() []core.PeerSummary {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.PeerSummaries()
}

// ReplicationStats returns the replication traffic counters.
func (c *Cluster) ReplicationStats() core.ReplicationCounters {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.Replication
}

// serve accepts and handles connections for one peer. Connections
// are persistent: each carries many multiplexed requests over its
// lifetime and closes only when a side goes away.
func (c *Cluster) serve(ps *peerServer) {
	defer c.wg.Done()
	for {
		conn, err := ps.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !ps.track(conn) {
			_ = conn.Close() // peer departed while accepting
			continue
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			defer ps.untrack(conn)
			c.handleConn(ps, conn)
		}()
	}
}

// serverConn is the per-connection server state: the framed socket
// and the table of in-flight streaming queries.
type serverConn struct {
	fc      *frameConn
	amu     sync.Mutex
	streams map[uint64]serverStream
}

// serverStream is what the connection's read loop holds of one
// streaming query: cancel (a CANCEL frame, or teardown) aborts it, and
// acks takes one token per STREAM_ACK, with a slot for every frame
// that can be in flight so an ACK is never dropped.
type serverStream struct {
	cancel context.CancelFunc
	acks   chan struct{}
}

// ackStream feeds one frame's acknowledgement to the streaming query
// with the given id, if it is still active.
func (sc *serverConn) ackStream(id uint64) {
	sc.amu.Lock()
	st, ok := sc.streams[id]
	sc.amu.Unlock()
	if ok {
		select {
		case st.acks <- struct{}{}:
		default: // more ACKs than frames in flight: not ours to count
		}
	}
}

// handleConn serves one persistent connection. REQUEST and QROUTE
// frames are routed frames passing through: each is advanced and sent
// on, never answered here. RESPONSE frames are direct replies to calls
// this cluster originated and complete them by id. QUERY opens a
// stream on this connection (STREAM_ACK feeds it, CANCEL aborts it,
// closing the connection aborts all of them); REPLICA and control
// frames are answered on this connection.
//
// Routed frames are handed to a persistent per-connection worker, so
// the read loop never waits on a downstream dial or write and the
// worker's warm stack absorbs the routing work (a fresh goroutine per
// frame re-pays stack growth on every hop); when the worker is busy
// with an earlier frame, a transient goroutine takes the overflow so
// multiplexed frames never queue behind each other.
func (c *Cluster) handleConn(ps *peerServer, conn net.Conn) {
	sc := &serverConn{fc: newFrameConn(conn), streams: make(map[uint64]serverStream)}
	sc.fc.met = c.met
	work := make(chan hop)
	defer close(work)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for h := range work {
			c.serveHop(&h)
		}
	}()
	defer func() {
		sc.amu.Lock()
		for _, st := range sc.streams {
			st.cancel()
		}
		sc.amu.Unlock()
	}()
	for {
		typ, id, tc, payload, err := sc.fc.readFrame()
		if err != nil {
			return // connection closed (client gone, peer dropped, Stop)
		}
		switch typ {
		case frameRequest, frameQRoute:
			h := hop{typ: typ, tc: tc}
			if typ == frameRequest {
				err = decodeRequest(payload, &h.req)
			} else {
				err = decodeQRoute(payload, &h.rq)
			}
			if err != nil {
				return // protocol violation: drop the connection
			}
			c.mu.RLock()
			h.self = ps.id // balancing renames write ps.id under the write lock
			c.mu.RUnlock()
			select {
			case work <- h: // idle worker takes it
			default: // worker busy: overflow goroutine keeps the frames moving
				c.wg.Add(1)
				go func(h hop) {
					defer c.wg.Done()
					c.serveHop(&h)
				}(h)
			}
		case frameResponse:
			c.complete(id, payload)
		case frameQuery:
			var q queryReq
			if err := decodeQuery(payload, &q); err != nil {
				return // protocol violation: drop the connection
			}
			ctx, cancel := context.WithCancel(context.Background())
			st := serverStream{cancel: cancel, acks: make(chan struct{}, streamMaxInflight)}
			sc.amu.Lock()
			sc.streams[id] = st
			sc.amu.Unlock()
			// Streams are long-lived relative to routing steps: each
			// gets its own goroutine instead of the shared worker, so
			// a slow stream never queues routed frames behind it.
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveQuery(ctx, sc, id, st, q, tc)
			}()
		case frameJoin, frameLeave, frameApply, frameStatus, frameAdmin,
			frameElect, frameEpochOpen, frameResync, frameFetch:
			// Control plane: hand the frame to the daemon layer. The
			// payload aliases the read buffer, so the handler gets a
			// copy; a goroutine per frame keeps the read loop moving
			// (handlers serialize on the daemon's own mutex and may
			// take this cluster's write lock).
			h := c.control
			cp := append([]byte(nil), payload...)
			c.wg.Add(1)
			go func(typ byte, id uint64, cp []byte) {
				defer c.wg.Done()
				if h == nil {
					_ = sc.fc.writeResponse(id, &response{Err: "transport: no control handler"})
					return
				}
				rtyp, rp := h(typ, cp)
				_ = sc.fc.writeRaw(rtyp, id, rp)
			}(typ, id, cp)
		case frameReplica:
			var b core.ReplicaBatch
			if err := decodeReplicaBatch(payload, &b); err != nil {
				return // protocol violation: drop the connection
			}
			// Replica installs take the topology write lock; a
			// goroutine per batch keeps the read loop (and the
			// frames multiplexed on this connection) moving.
			c.wg.Add(1)
			go func(id uint64, b core.ReplicaBatch, tc trace.Context) {
				defer c.wg.Done()
				span := c.rec.Start(tc, "replica-install", string(b.To))
				c.mu.Lock()
				n := c.net.AcceptReplicas(b.From, b.To, b.Infos)
				c.mu.Unlock()
				span.SetAttr("installed", strconv.Itoa(n))
				span.End()
				_ = sc.fc.writeResponse(id, &response{Logical: n})
			}(id, b, tc)
		case frameStreamAck:
			sc.ackStream(id)
		case frameCancel:
			sc.amu.Lock()
			if st, ok := sc.streams[id]; ok {
				st.cancel()
			}
			sc.amu.Unlock()
		}
	}
}

// queryBatchVisits bounds the node visits per read-lock hold of the
// server-side traversal; a frame is filled over as many holds as it
// takes. The stream's flow control is one slow-started variable, the
// credit window in keys: it starts at streamInitKeys and doubles with
// every STREAM_ACK up to streamWindowKeys. A frame carries up to
// min(window, streamFrameKeys) keys (it leaves early once its keys
// pass streamFrameBytes) and window/frame-size frames may be
// unacknowledged. So the first key leaves after one short step, an
// abandoned stream has cost a frame or two, a consumer that stops
// pulling halts the walk (flow control the kernel's socket buffers
// cannot provide), and a drained scan soon moves 512 keys per write
// and ACK. The values come from a sweep on scan-tcp (CHANGES.md PR 13).
const (
	queryBatchVisits = 256
	streamInitKeys   = 32
	streamFrameKeys  = 512
	streamFrameBytes = 16 << 10
	streamWindowKeys = 2048
	// streamMaxInflight is the most STREAM frames ever unacknowledged.
	streamMaxInflight = streamWindowKeys / streamFrameKeys
)

// serveQuery runs one streaming subtree query server-side: the walker
// advances in bounded read-locked steps, its matches leave as STREAM
// frames sized by the slow-started credit window, and the traversal
// totals close the stream as a STREAM_END frame — in the same write as
// the last STREAM when the walk ends inside a frame. The registered
// cancel (CANCEL frame from the consumer, or connection teardown)
// aborts the traversal at the next step boundary — the limit pushdown
// and early-exit contract on the wire.
func (c *Cluster) serveQuery(ctx context.Context, sc *serverConn, id uint64,
	stream serverStream, q queryReq, tc trace.Context) {

	defer func() {
		sc.amu.Lock()
		delete(sc.streams, id)
		sc.amu.Unlock()
		stream.cancel()
	}()
	w := core.NewQueryWalker(c.net, core.QuerySpec{
		Range:  q.Range,
		Prefix: q.Prefix,
		Lo:     q.Lo,
		Hi:     q.Hi,
		Limit:  q.Limit,
	})
	// The walker's phase spans parent under the wire context, so the
	// server-side walk joins the client's trace; FinishTrace flushes
	// the final phase even when the stream aborts early.
	w.TraceUnder(tc)
	defer w.FinishTrace()
	if !w.Empty() {
		c.mu.RLock()
		if q.Walk {
			// The climb/descend phases ran hop by hop as a QROUTE
			// frame; resume directly in the subtree walk at the
			// covering node, folding the route's counters in.
			w.ResumeWalk(q.Entry, core.QueryResult{
				LogicalHops:  q.Logical,
				PhysicalHops: q.Physical,
				NodesVisited: q.Visited,
			})
		} else {
			w.Start(q.Entry)
		}
		c.mu.RUnlock()
	}
	var out []keys.Key // one batch buffer for the whole stream
	var st streamEnd
	// inflight counts the STREAM frames not yet acknowledged.
	inflight, window, more := 0, streamInitKeys, !w.Empty()
	for {
		frameKeys := min(window, streamFrameKeys)
		if inflight >= window/frameKeys {
			// Window exhausted: wait for the consumer to pull a frame
			// (or give up) before touching any more of the tree.
			select {
			case <-stream.acks:
				inflight--
				window = min(2*window, streamWindowKeys)
				continue
			case <-ctx.Done():
			case <-c.quit:
			}
		}
		out = out[:0]
		for size := 0; more && st.Err == "" && len(out) < frameKeys && size < streamFrameBytes; {
			select {
			case <-ctx.Done():
				st.Err = ctx.Err().Error()
			case <-c.quit:
				st.Err = ErrStopped.Error()
			default:
				n0 := len(out)
				c.mu.RLock()
				out, more = w.StepN(out, frameKeys-n0, queryBatchVisits)
				c.mu.RUnlock()
				for _, k := range out[n0:] {
					size += len(k)
				}
			}
		}
		ws := w.Stats()
		c.queryVisits.Add(int64(ws.NodesVisited - st.Visited))
		st.Logical, st.Physical, st.Visited = ws.LogicalHops, ws.PhysicalHops, ws.NodesVisited
		last := !more || st.Err != ""
		if err := sc.fc.writeStream(id, out, &st, last); err != nil || last {
			return // the stream ended, or the connection is gone
		}
		inflight++
	}
}

// QueryVisits reports the cumulative node visits of server-side
// streaming query traversals (test observable: it stops growing when
// a cancelled consumer halts the walk).
func (c *Cluster) QueryVisits() int64 { return c.queryVisits.Load() }

// serveHop runs this peer's share of one routed frame and passes the
// frame on: one way to the next host while the walk continues, or as
// the answer to the originator where it ends — found, not found,
// dropped by gating, redirects exhausted, or a forward that failed
// twice, which the originator cures by re-issuing.
func (c *Cluster) serveHop(h *hop) {
	var span trace.Handle
	if h.typ == frameRequest {
		span = c.rec.Start(h.tc, obs.PhaseRelay, string(h.self))
		span.SetAttr("key", string(h.req.Key))
	} else {
		span = c.rec.Start(h.tc, obs.PhaseQRoute, string(h.self))
		span.SetAttr("anchor", string(h.rq.Anchor))
	}
	h.tc = span.Context()
	var resp response
	next, done := c.advance(h, &resp)
	if !done {
		if err := c.forward(context.Background(), next, h); err != nil {
			resp, done = response{Err: err.Error(), Retry: true}, true
		}
	}
	if done {
		c.reply(h, &resp)
	}
	span.End()
}

// advance routes the frame at h.self for as long as the walk stays on
// nodes that peer hosts. When the walk leaves the peer it returns the
// next host's address, with the frame updated in place and ready to
// forward; where routing ends it reports done with the outcome in resp
// (reply adds the counters).
func (c *Cluster) advance(h *hop, resp *response) (next string, done bool) {
	r := h.route()
	for {
		c.mu.RLock()
		peer, ok := c.net.Peer(h.self)
		if !ok {
			c.mu.RUnlock()
			*resp = response{Err: fmt.Sprintf("peer %q gone", h.self), Retry: true}
			return "", true
		}
		node, ok := peer.Nodes[r.At]
		if !ok {
			// The node lives elsewhere (stale routing): forward to its
			// current host. A node lost to an unrecovered crash has no
			// host anywhere: bound the forwards and report what the
			// walk has (not found; a query yields nothing, exactly as
			// the walker does at a vanished node).
			host, okh := c.net.HostOf(r.At)
			addr := c.addrs[host]
			c.mu.RUnlock()
			r.Redirects++
			return addr, !okh || r.Redirects > maxRedirects
		}
		var to keys.Key
		if h.typ == frameRequest {
			to, done = c.stepLocked(peer, node, &h.req, resp)
		} else {
			to, done = c.routeStepLocked(node, &h.rq, resp)
		}
		if done {
			c.mu.RUnlock()
			return "", true
		}
		host, _ := c.net.HostOf(to)
		addr := c.addrs[host]
		c.mu.RUnlock()
		r.At = to
		r.Logical++
		if host == h.self {
			continue // next node is local: no wire transfer
		}
		r.Physical++
		return addr, false
	}
}

// stepLocked is the discovery transition at one hosted node: the node
// to move to, or done with the outcome in resp. Callers hold c.mu (the
// read lock suffices: visit and capacity accounting are atomic).
func (c *Cluster) stepLocked(peer *core.Peer, node *core.Node, req *request, resp *response) (next keys.Key, done bool) {
	node.RecordVisit()
	if c.met != nil {
		c.met.Visits.Inc()
	}
	if c.gate && !peer.TryProcess() {
		// Section 4's request model: the visit is received (load
		// recorded above) but a saturated peer ignores the request.
		if c.met != nil {
			c.met.Drops.Inc()
		}
		resp.Dropped = true
		return "", true
	}
	if node.Key == req.Key {
		if node.HasData() {
			resp.Found = true
			for v := range node.Data {
				resp.Values = append(resp.Values, v)
			}
			// Map iteration order is random: sort so wire responses
			// are deterministic, matching the byte-identical
			// cross-engine contract.
			sort.Strings(resp.Values)
		}
		return "", true
	}
	if req.GoingUp && keys.IsPrefix(node.Key, req.Key) {
		req.GoingUp = false
	}
	if req.GoingUp {
		return node.Father, !node.HasFather
	}
	q, ok := node.BestChildFor(req.Key)
	return q, !ok || !keys.IsPrefix(q, req.Key)
}

// routeStepLocked is the climb/descend transition of a subtree query
// at one hosted node. The transition logic and counting mirror
// core.QueryWalker exactly, so on a stable tree the streamed totals
// match a walker that ran every phase in one process. Callers hold
// c.mu.
func (c *Cluster) routeStepLocked(node *core.Node, rq *qroute, resp *response) (next keys.Key, done bool) {
	if rq.Visited == 0 {
		rq.Visited = 1 // the entry node, counted as the walker's Start does
	}
	if !rq.Descending {
		// Climb until the current node's subtree covers the anchor
		// (its label is a prefix of the anchor), or the root.
		if !keys.IsPrefix(node.Key, rq.Anchor) && node.HasFather {
			if !c.net.NodeHosted(node.Father) {
				return "", true
			}
			rq.Visited++
			return node.Father, false
		}
		rq.Descending = true
	}
	// Descend towards the anchor while a single child still covers
	// the whole query (narrowing the traversal root).
	q, ok := node.BestChildFor(rq.Anchor)
	if !ok || !keys.IsPrefix(q, rq.Anchor) || !c.net.NodeHosted(q) {
		resp.Found, resp.Anchor = true, node.Key
		return "", true
	}
	rq.Visited++
	return q, false
}

// send puts one routed frame — a REQUEST or QROUTE on its way, or the
// reply that ends it — on the pooled connection to addr, one way.
// Injected faults act here; a dropped frame is lost silently, the way
// a receiver crashing after its read loses it.
func (c *Cluster) send(ctx context.Context, typ byte, addr string, write func(fc *frameConn) error) error {
	dup, err := c.faultGate(ctx, typ, addr)
	if err != nil {
		if errors.Is(err, ErrInjectedDrop) {
			return nil
		}
		return err
	}
	err = c.pool.send(ctx, addr, write)
	if err == nil && dup {
		err = c.pool.send(ctx, addr, write)
	}
	return err
}

// forward sends the frame one way to addr, the host of the node it
// stands at. A transport failure — dial refused, write on a broken
// socket — means the address was stale: the peer behind it departed,
// crashed, or a Balance round renamed the routing identities while
// the hop was resolving. The pool has already evicted the dead
// connection by then, so forward re-resolves the node's current host
// once and retries on a fresh dial (routing is an idempotent read: a
// frame the first attempt did deliver costs a duplicate reply, which
// the originator drops).
func (c *Cluster) forward(ctx context.Context, addr string, h *hop) error {
	r := h.route()
	write := func(fc *frameConn) error {
		if h.typ == frameRequest {
			return fc.writeRequest(r.Origin, h.tc, &h.req)
		}
		return fc.writeQRoute(r.Origin, h.tc, &h.rq)
	}
	err := c.send(ctx, h.typ, addr, write)
	if err == nil || ctx.Err() != nil || c.Stopped() {
		return err
	}
	c.mu.RLock()
	host, ok := c.net.HostOf(r.At)
	addr = c.addrs[host]
	c.mu.RUnlock()
	if !ok || addr == "" {
		return err
	}
	return c.send(ctx, h.typ, addr, write)
}

// reply writes the answer that ends h straight to its originator: one
// RESPONSE to the reply address, under the originator's id, carrying
// the frame's counters. A result too large for one frame degrades to
// an in-band error so the caller fails cleanly; a reply that cannot be
// delivered (twice, the second time on a fresh dial) is dropped, and
// the caller's sweeper re-issues the call.
func (c *Cluster) reply(h *hop, resp *response) {
	r := h.route()
	resp.Logical, resp.Physical, resp.Visited = r.Logical, r.Physical, h.rq.Visited
	write := func(fc *frameConn) error { return fc.writeResponse(r.Origin, resp) }
	ctx := context.Background()
	err := c.send(ctx, frameResponse, r.ReplyTo, write)
	if errors.Is(err, errFrameTooLarge) {
		*resp = response{Err: err.Error(), Logical: r.Logical, Physical: r.Physical}
	}
	if err != nil && !c.Stopped() {
		_ = c.send(ctx, frameResponse, r.ReplyTo, write)
	}
}

// Register declares a service (topology mutation, serialized).
func (c *Cluster) Register(key keys.Key, value string) error {
	select {
	case <-c.quit:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.net.InsertData(key, value, c.rng)
}

// RegisterBatch declares every entry under a single acquisition of
// the topology write lock, stopping at the first failure.
func (c *Cluster) RegisterBatch(entries []core.KV) error {
	select {
	case <-c.quit:
		return ErrStopped
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.net.InsertBatch(entries, c.rng)
}

// Unregister removes a value from a key, reporting whether it was
// registered.
func (c *Cluster) Unregister(key keys.Key, value string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.net.RemoveData(key, value)
}

// Stopped reports whether the cluster has been stopped.
func (c *Cluster) Stopped() bool {
	select {
	case <-c.quit:
		return true
	default:
		return false
	}
}

// reissueAfter is the sweeper's period: a call still unanswered after
// one to two periods counts as lost and is re-issued. It is far above
// any healthy discovery (tens of microseconds on loopback, a dial's
// worth on a cold pool), because a needless re-issue costs an extra
// entry draw. maxAttempts bounds the issues of one call.
const (
	reissueAfter = 500 * time.Millisecond
	maxAttempts  = 3
)

// pendingCall is one originated frame awaiting its direct reply.
// Whoever removes it from Cluster.pending — complete on the reply, the
// sweeper when it is overdue — owes done exactly one send (buffered,
// so that send never blocks); a caller that gives up removes it
// itself and is owed nothing.
type pendingCall struct {
	done chan bool // true: resp and err hold the decoded reply; false: overdue
	born uint64    // Cluster.tick at registration
	resp response
	err  error
}

// callPool recycles pendingCalls (and their channels) across calls.
var callPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan bool, 1)} }}

// complete hands a direct reply to the call waiting on id. Replies
// for ids nobody waits on — late answers to a call already re-issued
// or abandoned, duplicates — are dropped.
func (c *Cluster) complete(id uint64, payload []byte) {
	c.pmu.Lock()
	p := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if p != nil {
		p.err = decodeResponse(payload, &p.resp)
		p.done <- true
	}
}

// sweep is the cluster's one timer for every pending call: each period
// it expires the calls registered before the previous period began, so
// waiting costs a call no timer and no allocation of its own.
func (c *Cluster) sweep() {
	defer c.wg.Done()
	t := time.NewTicker(reissueAfter)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
		}
		c.pmu.Lock()
		c.tick++
		for id, p := range c.pending {
			if c.tick-p.born >= 2 {
				delete(c.pending, id)
				p.done <- false
			}
		}
		c.pmu.Unlock()
	}
}

// drawEntry draws the entry node of one attempt and resolves its
// host's address and the address replies should come back to (the
// first local listener; empty when the cluster has none).
func (c *Cluster) drawEntry() (entry, host keys.Key, addr, replyTo string, ok bool) {
	c.entryMu.Lock()
	c.mu.RLock()
	if entry, ok = c.net.RandomNodeKey(c.rng); ok {
		host, _ = c.net.HostOf(entry)
		addr = c.addrs[host]
		if len(c.servers) > 0 {
			replyTo = c.servers[0].addr
		}
	}
	c.mu.RUnlock()
	c.entryMu.Unlock()
	return entry, host, addr, replyTo, ok
}

// originate routes h through the overlay and waits for its direct
// reply, one attempt at a time (see attempt), each from a fresh entry
// draw. An attempt is re-issued, up to maxAttempts, when the sweeper
// finds it overdue (the frame or its reply was lost) or at once when a
// hop reports that it could not pass the frame on. ok is false on an
// empty tree (nothing was sent). The root span, named phase, opens
// with the first attempt and is the caller's to end.
func (c *Cluster) originate(ctx context.Context, phase string, h *hop, resp *response) (root trace.Handle, ok bool, err error) {
	r := h.route()
	fresh := *r
	p := callPool.Get().(*pendingCall)
	defer callPool.Put(p)
	for attempt := 1; ; attempt++ {
		entry, host, addr, replyTo, drawn := c.drawEntry()
		if !drawn {
			return root, false, err
		}
		if attempt == 1 {
			root = c.rec.StartRoot(phase, string(host))
			h.tc = root.Context()
		}
		if replyTo == "" {
			return root, true, errors.New("transport: no local listener to take the reply")
		}
		*r = fresh
		r.At, r.ReplyTo = entry, replyTo
		var retry bool
		if retry, err = c.attempt(ctx, addr, h, p, resp); err == nil {
			return root, true, nil
		}
		// Whatever went wrong, a caller or cluster that gave up
		// meanwhile reports that instead.
		if cerr := ctx.Err(); cerr != nil {
			return root, true, cerr
		}
		if c.Stopped() {
			return root, true, ErrStopped
		}
		if !retry {
			return root, true, err
		}
		if attempt == maxAttempts {
			if !errors.Is(err, ErrNoReply) {
				err = fmt.Errorf("%w: %v", ErrNoReply, err)
			}
			return root, true, err
		}
	}
}

// attempt issues h once: it registers p under a fresh pending id,
// stamps the frame with it and sends it one way to addr, the entry
// node's host; the peer where routing ends answers the frame's ReplyTo
// listener, whose handleConn completes the call. attempt returns when
// the call is answered or overdue, or the caller or the cluster gives
// up — in every case with p withdrawn and quiet. retry reports an
// error a re-issue can cure.
func (c *Cluster) attempt(ctx context.Context, addr string, h *hop, p *pendingCall, resp *response) (retry bool, err error) {
	r := h.route()
	c.pmu.Lock()
	c.lastCall++
	r.Origin, p.born = c.lastCall, c.tick
	c.pending[r.Origin] = p
	c.pmu.Unlock()
	if err := c.forward(ctx, addr, h); err != nil {
		c.abandon(r.Origin, p)
		return true, err
	}
	select {
	case replied := <-p.done:
		if !replied {
			return true, ErrNoReply
		}
		*resp, err = p.resp, p.err
		p.resp, p.err = response{}, nil
		if err == nil && resp.Err != "" {
			return resp.Retry, errors.New(resp.Err)
		}
		return false, err
	case <-ctx.Done():
		c.abandon(r.Origin, p)
		return false, ctx.Err()
	case <-c.quit:
		c.abandon(r.Origin, p)
		return false, ErrStopped
	}
}

// abandon withdraws a call nobody will wait on any longer. If complete
// or the sweeper got to it first, their send is already owed: take it,
// so the pendingCall is quiet when it is reused.
func (c *Cluster) abandon(id uint64, p *pendingCall) {
	c.pmu.Lock()
	_, waiting := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if !waiting {
		<-p.done
		p.resp, p.err = response{}, nil
	}
}

// Discover routes a discovery over TCP, entering at a random node.
func (c *Cluster) Discover(key keys.Key) (Result, error) {
	return c.DiscoverContext(context.Background(), key)
}

// DiscoverContext is Discover under a caller context: cancelling ctx
// withdraws the pending call and returns the context error at once.
// The frame still in flight runs out on its own — hops hold no state
// for it — and its reply is dropped on arrival.
func (c *Cluster) DiscoverContext(ctx context.Context, key keys.Key) (Result, error) {
	select {
	case <-c.quit:
		return Result{}, ErrStopped
	default:
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	began := time.Now()
	h := hop{typ: frameRequest, req: request{Key: key, GoingUp: true, route: route{Physical: 1}}}
	var resp response
	root, ok, err := c.originate(ctx, obs.PhaseDiscover, &h, &resp)
	if !ok && err == nil {
		return Result{Key: key}, nil
	}
	root.SetAttr("key", string(key))
	root.End()
	if c.met != nil {
		d := time.Since(began)
		c.met.DiscoverLatency.Observe(d.Seconds())
		c.met.RecordPhase(obs.PhaseRelay, resp.Physical, d)
	}
	if err != nil {
		return Result{Key: key}, err
	}
	return Result{
		Key:          key,
		Found:        resp.Found,
		Values:       resp.Values,
		LogicalHops:  resp.Logical,
		PhysicalHops: resp.Physical,
		Dropped:      resp.Dropped,
	}, nil
}

// WireStream is the client half of one streaming query: STREAM
// batches arrive multiplexed on the pooled connection and are pulled
// off in lexicographic order; STREAM_END closes the stream with the
// traversal totals. Closing early (or cancelling the query context)
// sends a CANCEL frame that frees the server-side traversal while the
// shared connection survives.
type WireStream struct {
	c   *Cluster
	pc  *poolConn
	id  uint64
	cs  *clientStream
	ctx context.Context

	cur      []keys.Key // the frame being consumed; all substrings of one arena
	pos      int
	ended    bool // no more events will be consumed
	finished bool // STREAM_END received: the server is already done
	stats    core.QueryResult
	err      error

	span  trace.Handle // the query's root span (inactive untraced)
	met   *obs.Metrics // cleared once the end-to-end latency is observed
	began time.Time

	closeOnce sync.Once
}

// finish closes the query's root span and observes its end-to-end
// latency; idempotent across the stream's several end paths.
func (s *WireStream) finish() {
	s.span.End()
	if s.met != nil && !s.began.IsZero() {
		s.met.QueryLatency.Observe(time.Since(s.began).Seconds())
		s.met = nil
	}
}

// StreamQuery starts a streaming subtree query over the wire in two
// phases. The entry node is drawn from the same seeded stream the
// slice queries use; the climb/descend phases then travel between
// listeners as one QROUTE frame — each step resolved by the peer
// hosting the node, like discovery steps — until the covering node is
// found and reported straight back. The subtree walk opens as a STREAM query at that
// node's host, seeded with the route's counters, and batches stream
// back over the pooled connection.
func (c *Cluster) StreamQuery(ctx context.Context, spec core.QuerySpec) (*WireStream, error) {
	select {
	case <-c.quit:
		return nil, ErrStopped
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Range && spec.Hi < spec.Lo {
		// Void by construction: no entry draw, no wire traffic,
		// matching the slice path.
		return &WireStream{ended: true, finished: true}, nil
	}
	anchor := spec.Prefix
	if spec.Range {
		anchor = keys.GCP(spec.Lo, spec.Hi)
	}
	began := time.Now()
	h := hop{typ: frameQRoute, rq: qroute{Anchor: anchor}}
	var rr response
	root, ok, err := c.originate(ctx, "query", &h, &rr)
	if !ok && err == nil {
		return &WireStream{ended: true, finished: true}, nil
	}
	root.SetAttr("anchor", string(anchor))
	if err != nil {
		root.End()
		return nil, err
	}
	if c.met != nil {
		c.met.RecordPhase(obs.PhaseQRoute, rr.Physical, time.Since(began))
		// The route's node visits happened hop by hop on the serving
		// peers; the walk phase counts its own from the resumed
		// walker's baseline, so nothing is double counted.
		c.met.Visits.Add(float64(rr.Visited))
	}
	pre := core.QueryResult{LogicalHops: rr.Logical,
		PhysicalHops: rr.Physical, NodesVisited: rr.Visited}
	if !rr.Found {
		// The route hit a node lost to churn: the walk yields nothing,
		// with the route's counters as totals (walker behaviour).
		ws := &WireStream{ended: true, finished: true, stats: pre,
			span: root, met: c.met, began: began}
		ws.finish()
		return ws, nil
	}
	c.mu.RLock()
	host, okh := c.net.HostOf(rr.Anchor)
	addr := c.addrs[host]
	c.mu.RUnlock()
	if !okh || addr == "" {
		ws := &WireStream{ended: true, finished: true, stats: pre,
			span: root, met: c.met, began: began}
		ws.finish()
		return ws, nil
	}
	q := &queryReq{
		Range:    spec.Range,
		Prefix:   spec.Prefix,
		Lo:       spec.Lo,
		Hi:       spec.Hi,
		Limit:    spec.Limit,
		Entry:    rr.Anchor,
		Walk:     true,
		Logical:  rr.Logical,
		Physical: rr.Physical,
		Visited:  rr.Visited,
	}
	pc, id, cs, err := c.openWireQuery(ctx, root.Context(), addr, q)
	if err != nil {
		// The address was stale (departed peer, Balance rename):
		// re-resolve the anchor's current host once and retry on a
		// fresh dial, as forward does for routed frames.
		if ctx.Err() != nil || errors.Is(err, ErrStopped) {
			root.End()
			return nil, err
		}
		c.mu.RLock()
		host, okh := c.net.HostOf(rr.Anchor)
		retryAddr := c.addrs[host]
		c.mu.RUnlock()
		if !okh || retryAddr == "" {
			root.End()
			return nil, err
		}
		if pc, id, cs, err = c.openWireQuery(ctx, root.Context(), retryAddr, q); err != nil {
			root.End()
			return nil, err
		}
	}
	return &WireStream{c: c, pc: pc, id: id, cs: cs, ctx: ctx, stats: pre,
		span: root, met: c.met, began: began}, nil
}

// openWireQuery registers a stream on the pooled connection to addr
// and puts its QUERY frame on the wire.
func (c *Cluster) openWireQuery(ctx context.Context, tc trace.Context, addr string, q *queryReq) (*poolConn, uint64, *clientStream, error) {
	pc, err := c.pool.get(ctx, addr)
	if err != nil {
		return nil, 0, nil, err
	}
	id, cs, err := c.pool.openStream(pc)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := pc.fc.writeQuery(id, tc, q); err != nil {
		pc.forgetStream(id)
		if !errors.Is(err, errFrameTooLarge) {
			c.pool.fail(pc, err)
		}
		return nil, 0, nil, err
	}
	return pc, id, cs, nil
}

// Next returns the next matching key; ok == false means the stream is
// exhausted (see Err). The keys of one STREAM frame are substrings of
// a single string decoded for that frame, so retaining one key retains
// at most one frame (streamFrameBytes or so); strings.Clone a key kept
// far beyond the stream.
func (s *WireStream) Next() (keys.Key, bool) {
	for {
		if s.pos < len(s.cur) {
			k := s.cur[s.pos]
			s.pos++
			return k, true
		}
		if s.ended {
			return keys.Epsilon, false
		}
		select {
		case msg := <-s.cs.ch:
			switch {
			case msg.err != nil:
				s.err, s.ended = msg.err, true
				s.finish()
				return keys.Epsilon, false
			case msg.end:
				s.ended, s.finished = true, true
				s.stats = msg.info.result()
				if msg.info.Err != "" {
					s.err = errors.New(msg.info.Err)
				}
				s.finish()
				return keys.Epsilon, false
			default:
				s.cur, s.pos = msg.batch, 0
				s.stats = msg.info.result()
				// Feed the server's credit window: one ACK per frame
				// pulled keeps the traversal flowing (and, early on,
				// growing); a consumer that stops pulling starves it.
				_ = s.pc.fc.writeStreamAck(s.id)
			}
		case <-s.ctx.Done():
			s.err, s.ended = s.ctx.Err(), true
			s.finish()
			return keys.Epsilon, false
		case <-s.c.quit:
			s.err, s.ended = ErrStopped, true
			s.finish()
			return keys.Epsilon, false
		}
	}
}

// Err reports the error that terminated the stream early, nil after a
// normal end of stream.
func (s *WireStream) Err() error { return s.err }

// Stats returns the traversal counters as of the last batch pulled
// (every STREAM frame carries the server's running totals);
// STREAM_END replaces them with the final totals.
func (s *WireStream) Stats() core.QueryResult { return s.stats }

// Close releases the stream. If the server is still traversing, the
// demux entry is dropped and a CANCEL frame frees the server-side
// walk — the pooled connection itself stays open and keeps serving
// the other multiplexed requests. After Close, Next reports end of
// stream even if batches were still buffered.
func (s *WireStream) Close() error {
	s.closeOnce.Do(func() {
		if s.cs != nil {
			if !s.finished {
				s.pc.forgetStream(s.id)
				_ = s.pc.fc.writeCancel(s.id)
			}
			close(s.cs.gone)
		}
		s.ended = true
		s.cur, s.pos = nil, 0
		s.finish()
	})
	return nil
}

// Snapshot returns a consistent copy of the whole tree.
func (c *Cluster) Snapshot() *trie.Tree {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.TreeSnapshot()
}

// NumPeers returns the peer count.
func (c *Cluster) NumPeers() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.NumPeers()
}

// NumNodes returns the tree size.
func (c *Cluster) NumNodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.NumNodes()
}

// Addrs returns the listen addresses by peer id.
func (c *Cluster) Addrs() map[keys.Key]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[keys.Key]string, len(c.addrs))
	for k, v := range c.addrs {
		out[k] = v
	}
	return out
}

// Validate cross-checks overlay invariants.
func (c *Cluster) Validate() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.Validate()
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
	c.once.Do(func() {
		close(c.quit)
		c.mu.Lock()
		servers := append([]*peerServer(nil), c.servers...)
		c.mu.Unlock()
		for _, ps := range servers {
			ps.close()
		}
		c.pool.closeAll()
	})
	c.wg.Wait()
}
