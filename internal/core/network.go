package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/ring"
	"dlpt/internal/trace"
)

// Placement selects how tree nodes are mapped onto peers.
type Placement int

const (
	// PlacementLexicographic is the paper's contribution: node n runs
	// on the peer with the lowest identifier >= n (wrapping), so
	// lexicographically close nodes share peers.
	PlacementLexicographic Placement = iota
	// PlacementHashed is the original DLPT-over-DHT mapping of [5]:
	// node n runs on the peer owning hash(n) on a hashed Chord ring.
	// Tree structure is identical; only locality differs (the
	// "random mapping" baseline of Figure 9).
	PlacementHashed
)

// String returns the placement name.
func (p Placement) String() string {
	if p == PlacementHashed {
		return "hashed"
	}
	return "lexicographic"
}

// Counters aggregates protocol traffic. Discovery traffic and
// maintenance traffic are accounted separately: only discovery
// consumes peer capacity.
type Counters struct {
	// MaintenanceMsgs counts protocol messages exchanged for peer
	// joins, leaves and data insertions (tree hops, ring walks, node
	// transfers).
	MaintenanceMsgs int
	// MaintenancePhysical counts the subset of maintenance messages
	// that crossed a peer boundary.
	MaintenancePhysical int
	// DiscoveryVisits counts node visits by discovery requests.
	DiscoveryVisits int
	// DroppedVisits counts discovery visits ignored by saturated
	// peers.
	DroppedVisits int
	// NodesTransferred counts tree nodes moved between peers (joins,
	// leaves, load balancing).
	NodesTransferred int
}

// charge counts n maintenance messages, and them as physical too when
// cross is set: they left the sending peer.
func (net *Network) charge(n int, cross bool) {
	net.Counters.MaintenanceMsgs += n
	if cross {
		net.Counters.MaintenancePhysical += n
	}
}

// RequestResult reports the fate of one discovery request.
type RequestResult struct {
	Key keys.Key
	// Satisfied is true when the request reached the node storing Key
	// with every peer on the path under capacity.
	Satisfied bool
	// Dropped is true when a saturated peer ignored the request.
	Dropped bool
	// NotFound is true when routing proved the key absent.
	NotFound bool
	// LogicalHops counts tree edges traversed (node-to-node steps).
	LogicalHops int
	// PhysicalHops counts the traversed edges whose endpoints were
	// hosted on different peers (actual network communications).
	PhysicalHops int
	// Node is Key's node when Satisfied, to read under the routing lock.
	Node *Node
}

// Network is the complete DLPT overlay: the peer ring, the
// distributed PGCP tree, and the message machinery of Section 3.
// All methods are deterministic; randomness comes only from the
// *rand.Rand handed to the entry points that need one.
type Network struct {
	Alphabet    *keys.Alphabet
	Placement   Placement
	Counters    Counters
	Replication ReplicationCounters

	// Obs and Tracer, when set by an engine, instrument every query
	// walker built over this network: per-phase trace spans and
	// hop/visit counters. Both are nil-safe and default to disabled.
	Obs    *obs.Metrics
	Tracer *trace.Recorder

	// The replica store holds each replicated node key's snapshot and
	// the peer holding it (the host's ring successor, or wherever a crash
	// left it; see replication.go). slots holds those of indexed nodes,
	// slots[n.pos] beside nodeList[n.pos], nil until a replica is placed;
	// replicas, by key, those of keys out of the index: lost to a crash
	// and not recovered yet, or removed and awaiting compaction. indexNode
	// and unindexNode move an entry across. pendingLost records the node
	// keys dropped by crashes since the last Recover; crashed keeps those
	// of the dropped nodes that held values, so Recover can tell which
	// came back without some.
	slots       []held
	replicas    map[keys.Key]held
	pendingLost map[keys.Key]bool
	crashed     []*Node
	// epoch is the replication epoch open since the last ReplicaPlan:
	// a node touched in it carries it as its stamp.
	epoch uint32

	// Journal, when set, is invoked after every successful catalogue
	// mutation (register / unregister) — the persistence layer's
	// append-only journal hook.
	Journal func(remove bool, key keys.Key, value string)

	// offJournal marks a catalogue that changed outside the journal
	// funnel since the last CaptureSnapshot: the store's newest image and
	// the journal after it no longer fold to it (see catview.go).
	offJournal bool

	peers map[keys.Key]*Peer
	ring  *ring.Ring

	// hashRing holds the hashed positions of peers for
	// PlacementHashed.
	hashPos  []uint64
	hashPeer map[uint64]keys.Key
	peerHash map[keys.Key]uint64

	// node index: every tree node by key, and in Node.pos order for
	// random entry draws.
	nodes    map[keys.Key]*Node
	nodeList []*Node

	root    keys.Key
	hasRoot bool
}

// NewNetwork returns an empty overlay using the given alphabet and
// placement.
func NewNetwork(alpha *keys.Alphabet, placement Placement) *Network {
	return &Network{
		Alphabet:  alpha,
		Placement: placement,
		peers:     make(map[keys.Key]*Peer),
		ring:      ring.New(),
		hashPeer:  make(map[uint64]keys.Key),
		peerHash:  make(map[keys.Key]uint64),
		nodes:     make(map[keys.Key]*Node),
		replicas:  make(map[keys.Key]held),
	}
}

// NumPeers returns the number of peers.
func (net *Network) NumPeers() int { return len(net.peers) }

// NumNodes returns the number of tree nodes.
func (net *Network) NumNodes() int { return len(net.nodeList) }

// Peer returns the peer with the given id.
func (net *Network) Peer(id keys.Key) (*Peer, bool) {
	p, ok := net.peers[id]
	return p, ok
}

// PeerIDs returns all peer ids in ascending order.
func (net *Network) PeerIDs() []keys.Key { return net.ring.IDs() }

// Ring exposes the ring bookkeeping (read-mostly; used by load
// balancers and tests).
func (net *Network) Ring() *ring.Ring { return net.ring }

// Root returns the current tree root key.
func (net *Network) Root() (keys.Key, bool) { return net.root, net.hasRoot }

// RandomNodeKey returns a uniformly random tree node key.
func (net *Network) RandomNodeKey(r *rand.Rand) (keys.Key, bool) {
	entry, _, ok := net.RandomEntry(r)
	return entry, ok
}

// RandomEntry is RandomNodeKey's draw, also naming the node's host.
func (net *Network) RandomEntry(r *rand.Rand) (entry, host keys.Key, ok bool) {
	if len(net.nodeList) == 0 {
		return keys.Epsilon, keys.Epsilon, false
	}
	n := net.nodeList[r.Intn(len(net.nodeList))]
	return n.Key, n.host.ID, true
}

// RandomPeerID returns a uniformly random peer id.
func (net *Network) RandomPeerID(r *rand.Rand) (keys.Key, bool) {
	if net.ring.Len() == 0 {
		return keys.Epsilon, false
	}
	return net.ring.At(r.Intn(net.ring.Len())), true
}

// ResetUnit starts a new time unit: peers' processed counters reset
// and every node's current load becomes its previous load (the
// history MLT consumes).
func (net *Network) ResetUnit() {
	for _, p := range net.peers {
		p.Processed = 0
		p.procConc.Store(0)
	}
	for _, n := range net.nodeList {
		load := int(n.visits.Swap(0))
		if load != 0 || n.LoadPrev != 0 {
			net.touch(n)
		}
		n.LoadPrev = load
	}
}

// PeerSummary is a read-only view of one peer's membership state,
// shared by the execution engines' Peers listings.
type PeerSummary struct {
	ID       keys.Key
	Capacity int
	// Nodes is |ν_P|, the number of tree nodes the peer runs.
	Nodes int
	// LoadPrev is the peer's aggregate load of the previous time unit.
	LoadPrev int
}

// PeerSummaries returns one summary per peer in ascending id (ring)
// order.
func (net *Network) PeerSummaries() []PeerSummary {
	ids := net.ring.IDs()
	out := make([]PeerSummary, 0, len(ids))
	for _, id := range ids {
		p := net.peers[id]
		out = append(out, PeerSummary{
			ID:       id,
			Capacity: p.Capacity,
			Nodes:    p.NumNodes(),
			LoadPrev: p.LoadPrev(),
		})
	}
	return out
}

// --- placement -------------------------------------------------------------

func hash64(k keys.Key) uint64 {
	h := fnv.New64a()
	h.Write([]byte(k))
	return h.Sum64()
}

// HostOf returns the peer responsible for node key k under the
// network's placement.
func (net *Network) HostOf(k keys.Key) (keys.Key, bool) {
	switch net.Placement {
	case PlacementHashed:
		return net.hashHostOf(hash64(k))
	default:
		return net.ring.HostOf(k)
	}
}

func (net *Network) hashHostOf(h uint64) (keys.Key, bool) {
	if len(net.hashPos) == 0 {
		return keys.Epsilon, false
	}
	i := sort.Search(len(net.hashPos), func(i int) bool { return net.hashPos[i] >= h })
	if i == len(net.hashPos) {
		i = 0
	}
	return net.hashPeer[net.hashPos[i]], true
}

func (net *Network) hashInsertPeer(id keys.Key) {
	h := hash64(id)
	for {
		if _, taken := net.hashPeer[h]; !taken {
			break
		}
		h++ // astronomically unlikely; linear probe keeps determinism
	}
	net.hashPeer[h] = id
	net.peerHash[id] = h
	i := sort.Search(len(net.hashPos), func(i int) bool { return net.hashPos[i] >= h })
	net.hashPos = append(net.hashPos, 0)
	copy(net.hashPos[i+1:], net.hashPos[i:])
	net.hashPos[i] = h
}

func (net *Network) hashRemovePeer(id keys.Key) {
	h, ok := net.peerHash[id]
	if !ok {
		return
	}
	delete(net.peerHash, id)
	delete(net.hashPeer, h)
	i := sort.Search(len(net.hashPos), func(i int) bool { return net.hashPos[i] >= h })
	if i < len(net.hashPos) && net.hashPos[i] == h {
		copy(net.hashPos[i:], net.hashPos[i+1:])
		net.hashPos = net.hashPos[:len(net.hashPos)-1]
	}
}

// --- node index ------------------------------------------------------------

// indexNode enters n in the index, in the slot of a node it replaces
// (which leaves its host's ν_P too). A new key takes back any replica
// it held out of the index.
func (net *Network) indexNode(n *Node) {
	if old, ok := net.nodes[n.Key]; ok {
		n.pos, old.pos = old.pos, -1
		old.host.release(old)
	} else {
		n.pos = int32(len(net.nodeList))
		net.nodeList = append(net.nodeList, nil)
		if net.slots != nil { // made before any replica is held by key
			e, ok := net.replicas[n.Key]
			if net.slots = append(net.slots, e); ok {
				delete(net.replicas, n.Key)
			}
		}
	}
	net.nodes[n.Key], net.nodeList[n.pos] = n, n
	net.touch(n)
}

// linkNode links the indexed n to its father and into the father's edge,
// and to its children and up from those that name it.
func (net *Network) linkNode(n *Node) {
	n.up = nil
	if f, ok := net.nodes[n.Father]; ok && n.HasFather {
		if i, found := f.edge(n.Key); found {
			f.Children[i].node = n
		}
		n.up = f
	}
	net.linkChildren(n)
}

// linkChildren points every edge of n at the indexed child, nil where
// there is none, and the father link of each child that names n at n.
func (net *Network) linkChildren(n *Node) {
	for i := range n.Children {
		c := net.nodes[n.Children[i].Key]
		if n.Children[i].node = c; c != nil && c.HasFather && c.Father == n.Key {
			c.up = n
		}
	}
}

// unindexNode takes n out of the index and out of its host's ν_P. A
// replica of the node moves to the store by key, for CompactReplicas to
// judge; the last slot takes n's, as the last node does.
func (net *Network) unindexNode(n *Node) {
	n.host.release(n)
	last := len(net.nodeList) - 1
	if net.slots != nil {
		if e := net.slots[n.pos]; e.at != nil {
			net.replicas[n.Key] = e
		}
		net.slots[n.pos], net.slots[last] = net.slots[last], held{}
		net.slots = net.slots[:last]
	}
	net.nodeList[n.pos] = net.nodeList[last]
	net.nodeList[n.pos].pos = n.pos
	net.nodeList[last] = nil
	net.nodeList = net.nodeList[:last]
	delete(net.nodes, n.Key)
	n.pos = -1
}

// HasNode reports whether a tree node with key k exists.
func (net *Network) HasNode(k keys.Key) bool {
	_, ok := net.nodes[k]
	return ok
}

// NodeAt resolves k to its live tree node and the peer hosting it by one
// probe of the index: what Follow falls back to, and where a hop that
// arrives at a peer by key starts.
func (net *Network) NodeAt(k keys.Key) (*Node, *Peer, bool) {
	n, ok := net.nodes[k]
	if !ok {
		return nil, nil, false
	}
	return n, n.host, true
}

// Follow resolves edge e to its node and host: through the link while
// the linked node is indexed, else by one probe (NodeAt), as for an edge
// built from a bare key. Callers hold the read lock.
func (net *Network) Follow(e Child) (*Node, *Peer, bool) {
	if n := e.node; n != nil && n.pos >= 0 {
		return n, n.host, true
	}
	return net.NodeAt(e.Key)
}

// --- peer rename (MLT primitive) --------------------------------------------

// RenamePeer moves peer oldID to newID on the ring, preserving its
// circular position. Node states stay on the peer; the caller (the
// load balancer) is responsible for having moved node responsibility
// consistently beforehand.
func (net *Network) RenamePeer(oldID, newID keys.Key) error {
	if oldID == newID {
		return nil
	}
	p, ok := net.peers[oldID]
	if !ok {
		return fmt.Errorf("core: rename of unknown peer %q", oldID)
	}
	if _, exists := net.peers[newID]; exists {
		return fmt.Errorf("core: rename target %q already exists", newID)
	}
	if err := net.ring.Replace(oldID, newID); err != nil {
		return err
	}
	delete(net.peers, oldID)
	p.ID = newID
	net.peers[newID] = p
	// Fix neighbour links.
	if pred, ok := net.peers[p.Pred]; ok && pred != p {
		pred.Succ = newID
	}
	if succ, ok := net.peers[p.Succ]; ok && succ != p {
		succ.Pred = newID
	}
	if p.Pred == oldID {
		p.Pred = newID
	}
	if p.Succ == oldID {
		p.Succ = newID
	}
	if net.Placement == PlacementHashed {
		net.hashRemovePeer(oldID)
		net.hashInsertPeer(newID)
	}
	return nil
}

// MoveNode transfers the node with key k from peer fromID to peer
// toID (a load-balancing transfer; counted as maintenance traffic).
func (net *Network) MoveNode(k, fromID, toID keys.Key) error {
	from, ok := net.peers[fromID]
	if !ok {
		return fmt.Errorf("core: move from unknown peer %q", fromID)
	}
	to, ok := net.peers[toID]
	if !ok {
		return fmt.Errorf("core: move to unknown peer %q", toID)
	}
	n, ok := net.nodes[k]
	if !ok || n.host != from {
		return fmt.Errorf("core: peer %q does not host node %q", fromID, k)
	}
	from.release(n)
	to.adopt(n)
	net.charge(1, true)
	net.Counters.NodesTransferred++
	return nil
}

// --- validation -------------------------------------------------------------

// Validate cross-checks every invariant of the overlay: ring order
// and neighbour links, the mapping rule, the node index against the
// peers' node sets, and the PGCP property: every node, with its father
// and children, as the canonical pass over the sorted data keys
// (canonicalPass) has it.
func (net *Network) Validate() error {
	if err := net.ring.Validate(); err != nil {
		return err
	}
	if len(net.peers) != net.ring.Len() {
		return fmt.Errorf("core: %d peers vs %d ring members", len(net.peers), net.ring.Len())
	}
	ids := net.ring.IDs()
	for i, id := range ids {
		p, ok := net.peers[id]
		if !ok {
			return fmt.Errorf("core: ring member %q missing from peer map", id)
		}
		if p.ID != id {
			return fmt.Errorf("core: peer map key %q vs peer id %q", id, p.ID)
		}
		wantSucc := ids[(i+1)%len(ids)]
		wantPred := ids[(i-1+len(ids))%len(ids)]
		if p.Succ != wantSucc {
			return fmt.Errorf("core: peer %q succ=%q want %q", id, p.Succ, wantSucc)
		}
		if p.Pred != wantPred {
			return fmt.Errorf("core: peer %q pred=%q want %q", id, p.Pred, wantPred)
		}
	}
	// Node sets against the index: every node of ν_P sits at its slot,
	// names p as its host and is indexed, and the counts agree, so the
	// peers' node sets together are exactly the index.
	seen := 0
	for id, p := range net.peers {
		for i, n := range p.nodes {
			seen++
			switch {
			case n.host == p && int(n.slot) != i:
				return fmt.Errorf("core: node %q at %d of %q's node set records slot %d", n.Key, i, id, n.slot)
			case n.host != p && n.host.holds(n):
				return fmt.Errorf("core: node %q is listed on both %q and %q", n.Key, id, n.host.ID)
			case n.host != p:
				return fmt.Errorf("core: node %q listed on %q names another host", n.Key, id)
			case net.nodes[n.Key] != n:
				return fmt.Errorf("core: node %q on %q is not where the index reaches it", n.Key, id)
			}
		}
	}
	if seen != len(net.nodes) || seen != len(net.nodeList) {
		return fmt.Errorf("core: %d hosted nodes vs %d indexed, %d listed", seen, len(net.nodes), len(net.nodeList))
	}
	// Mapping rule, and the tree against the canonical PGCP structure
	// over the data keys: every node is a canonical label with the
	// canonical father and children, each edge links the indexed
	// child, and there are as many nodes as labels.
	slab, canon := net.canonical()
	for i, n := range net.nodeList {
		k := n.Key
		if net.nodes[k] != n || int(n.pos) != i {
			return fmt.Errorf("core: node %q is not at its slot %d of the node list", k, n.pos)
		}
		if host, _ := net.HostOf(k); host != n.host.ID {
			return fmt.Errorf("core: node %q hosted on %q, mapping says %q", k, n.host.ID, host)
		}
		if !strictlyAscending(n.Data) {
			return fmt.Errorf("core: node %q values not strictly ascending", k)
		}
		cn := canon[k]
		if cn == nil {
			return fmt.Errorf("core: node %q is not a label of the PGCP tree", k)
		}
		if !linksCanonical(n, cn) {
			return fmt.Errorf("core: node %q has father %q and %d children, the PGCP tree's has %q and %d",
				k, n.Father, len(n.Children), cn.father, len(cn.kids))
		}
		for _, c := range n.Children {
			if c.node != net.nodes[c.Key] {
				return fmt.Errorf("core: edge %q of %q does not link the indexed child", c.Key, k)
			}
		}
		if e, ok := net.slotOf(n); ok && e.at != net.successorOf(n.host) {
			return fmt.Errorf("core: replica of %q on %q, successor rule says %q", k, e.at.ID, net.successorOf(n.host).ID)
		}
		if n.up != nil && (!n.HasFather || n.up != net.nodes[n.Father]) {
			return fmt.Errorf("core: the father edge of %q does not link the indexed %q", k, n.Father)
		}
	}
	if len(canon) != len(net.nodeList) {
		return fmt.Errorf("core: %d nodes vs %d labels of the PGCP tree", len(net.nodeList), len(canon))
	}
	// With every node's links canonical, the root is the fatherless one.
	if root := net.nodes[net.root]; net.hasRoot != (len(slab) > 0) || net.hasRoot && (root == nil || root.HasFather) {
		return fmt.Errorf("core: root %q (%v), the PGCP tree has %d labels", net.root, net.hasRoot, len(slab))
	}
	// Every replica held by key sits on a peer of the ring (the replicas
	// of crashed, unrecovered nodes stay wherever they survived); every
	// live node's is in its slot, on its host's successor (above).
	for k, e := range net.replicas {
		switch {
		case net.peers[e.at.ID] != e.at:
			return fmt.Errorf("core: replica of %q held by %q, which left the ring", k, e.at.ID)
		case net.HasNode(k):
			return fmt.Errorf("core: replica of the indexed %q is held by key", k)
		}
	}
	return nil
}
