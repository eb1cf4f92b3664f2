package core

import (
	"fmt"
	"maps"
	"slices"

	"dlpt/internal/keys"
)

// Replication and crash recovery. The paper's protocol handles
// graceful departures only; its companion work ([5], [6] and the
// PGCP-tree self-stabilization line of the same authors) motivates
// replicating node state so the tree survives crashes. We implement
// true successor replication: every tree node's snapshot (key, values
// and loads; its links are the PGCP tree's over the data keys) lives on
// the ring successor of its host peer, refreshed by Replicate and used
// by Recover after a crash. The refresh is by change, as in delta-state
// replication (Almeida, Shoker and Baquero, JPDC 2018): a tick ships the
// nodes stamped since the previous one (touch), plus every node whose
// current-unit load differs from its replica's, and shares each node's
// values with its snapshot (copy on ship, see Node). A change of links
// or host stamps nothing: replicas have a *place*, so a topology change
// moves those of the nodes of the hosts next to it (rehome), and that
// transfer traffic is counted (TransferMsgs/TransferredNodes):
// replication cost tracks churn as in the paper's model instead of
// being flat per Replicate tick.
//
// Recover reinstalls every replicated node and rebuilds the structure
// canonically from the surviving data keys (the PGCP tree over a key set
// is unique), so an old snapshot never resurrects stale structure and
// nothing removed comes back; only data declared after the last tick on
// a crashed peer can be lost, and Recover names those keys. Until it
// runs, tree-routed operations may fail: a crash leaves dangling
// references, as in a real deployment before repair.
//
// A crash loses two things at once: the peer's node states (their
// replicas survive on the peer's successor) and the replica set the
// peer held on behalf of its predecessor (whose live nodes survive
// and are re-replicated at the next tick) — the standard successor
// replication trade-off.

// ReplicationCounters tracks replication traffic.
type ReplicationCounters struct {
	// SnapshotMsgs counts node snapshots shipped to successors by
	// Replicate.
	SnapshotMsgs int
	// RestoredNodes counts nodes reinstalled from snapshots.
	RestoredNodes int
	// LostNodes counts crashed nodes that could not be recovered, or
	// were recovered without values declared after their replica.
	LostNodes int
	// Failures counts crash events.
	Failures int
	// RepairMsgs counts anti-entropy link-repair messages.
	RepairMsgs int
	// TransferMsgs counts replica-set transfer messages exchanged
	// when topology changes re-home replicas (one message per
	// source→target batch per event).
	TransferMsgs int
	// TransferredNodes counts replica snapshots moved by re-homing.
	TransferredNodes int
}

// ReplicaBatch is the successor shipment of one host's snapshots: the
// unit the deployment engines route through their per-peer or wire
// paths (live mailboxes, tcp REPLICA frames).
type ReplicaBatch struct {
	// From is the host peer whose nodes are snapshotted; To its ring
	// successor, where the snapshots belong.
	From, To keys.Key
	Infos    []Replica
	// nodes are the snapshots' nodes, one per snapshot, in a batch a plan
	// built in this process; a batch decoded from the wire has none.
	nodes []*Node
}

// held is one entry of the replica store: a node's snapshot and its
// holder, nil in a slot whose node has no replica. A move is a write of
// at, so a rename moves nothing.
type held struct {
	at *Peer
	Replica
}

// touch stamps n with the open replication epoch, so the next
// ReplicaPlan ships it: on its creation, and on every write to its
// values or loads.
func (net *Network) touch(n *Node) { n.stamp = net.epoch }

// successorOf returns the ring successor of host p: the peer that holds
// the replicas of the nodes p runs.
func (net *Network) successorOf(p *Peer) *Peer {
	succ, _ := net.ring.Successor(p.ID)
	return net.peers[succ]
}

// replicaTarget returns the peer that must hold the replica of node
// k: the ring successor of k's host.
func (net *Network) replicaTarget(k keys.Key) (*Peer, bool) {
	host, ok := net.HostOf(k)
	if !ok {
		return nil, false
	}
	return net.successorOf(net.peers[host]), true
}

// slotOf returns the replica of the indexed n, and whether it has one.
func (net *Network) slotOf(n *Node) (*held, bool) {
	if net.slots == nil || net.slots[n.pos].at == nil {
		return nil, false
	}
	return &net.slots[n.pos], true
}

// placeReplica installs (or refreshes) info on peer tgt, in place of
// any copy elsewhere: in the slot of n, info's indexed node, or by key
// when n is nil (no node holds the key). The first replica placed makes
// the slots. Counters are the caller's job.
func (net *Network) placeReplica(n *Node, info Replica, tgt *Peer) {
	if net.slots == nil {
		net.slots = make([]held, len(net.nodeList), cap(net.nodeList))
	}
	var old held
	if n != nil {
		old, net.slots[n.pos] = net.slots[n.pos], held{tgt, info}
	} else {
		old, net.replicas[info.Key] = net.replicas[info.Key], held{tgt, info}
	}
	if old.at != nil {
		old.at.replicas--
	}
	tgt.replicas++
}

// moveReplica re-homes the replica e to peer to.
func moveReplica(e *held, to *Peer) {
	e.at.replicas--
	to.replicas++
	e.at = to
}

// ReplicaPlan computes one replication tick and closes the epoch it
// ships: for every peer, the batch of snapshots of the nodes it runs
// that changed since the previous plan or whose current-unit load is
// not the one their replica holds, bound for its ring successor, in
// ascending host order, each batch in ν_P's order; peers with nothing
// to ship have no batch. Applying the plan leaves every live node's
// replica equal to its infoOf. The sequential engine applies the plan
// inline (Replicate); the concurrent engines route each batch through
// their real per-peer delivery paths and apply it with AcceptReplicas.
// One pass collects the nodes to ship; each batch carries them beside
// their snapshots, and all share two arrays, so a plan allocates the
// same few times whatever it ships.
func (net *Network) ReplicaPlan() []ReplicaBatch {
	epoch := net.epoch
	net.epoch++
	var nodes []*Node
	var out []ReplicaBatch
	for i := 0; i < net.ring.Len(); i++ {
		from := len(nodes)
		for _, n := range net.peers[net.ring.At(i)].nodes {
			if n.stamp == epoch || n.Load() != 0 && !net.loadReplicated(n) {
				if nodes == nil {
					nodes, out = make([]*Node, 0, len(net.nodeList)), make([]ReplicaBatch, 0, net.ring.Len())
				}
				nodes = append(nodes, n)
			}
		}
		if len(nodes) > from {
			out = append(out, ReplicaBatch{From: net.ring.At(i), To: net.ring.At((i + 1) % net.ring.Len()),
				nodes: nodes[from:len(nodes):len(nodes)]})
		}
	}
	infos := make([]Replica, len(nodes))
	for i, n := range nodes {
		infos[i] = infoOf(n)
	}
	for i := range out {
		out[i].Infos, infos = infos[:len(out[i].nodes):len(out[i].nodes)], infos[len(out[i].nodes):]
	}
	return out
}

// loadReplicated reports whether n's replica holds n's current-unit
// load: discoveries count visits without a stamp (the concurrent
// engines' under the read lock).
func (net *Network) loadReplicated(n *Node) bool {
	e, ok := net.slotOf(n)
	return ok && e.LoadCur == n.Load()
}

// AcceptReplicas installs one shipped batch, re-routing entries whose
// placement changed while the batch was in flight: the shipped target
// is only a hint — the successor rule at install time wins, so a
// topology change racing a concurrent engine's Replicate tick cannot
// pin a replica on a stale successor. A snapshot its node no longer
// matches is installed as the node is now: a write since the plan, an
// acked unregister among them, is never undone by a crash. The node a
// batch carries is taken while it is indexed (pos >= 0, as in Follow);
// a batch from the wire carries none, and is looked up by key, as is a
// node out of the index, which finds any node that replaced it. The
// successor is resolved once per run of one host's snapshots. It
// returns the number of snapshots installed and accounts them as
// replication maintenance traffic.
func (net *Network) AcceptReplicas(b ReplicaBatch) int {
	count := 0
	var host, succ *Peer
	for i, info := range b.Infos {
		var tgt *Peer
		var n *Node
		if i < len(b.nodes) && b.nodes[i].pos >= 0 {
			n = b.nodes[i]
		} else {
			n = net.nodes[info.Key]
		}
		if n != nil {
			if n.host != host {
				host, succ = n.host, net.successorOf(n.host)
			}
			tgt = succ
			if !n.captured(info) {
				// Changed since the plan, or a batch delivered after a
				// later tick's: the replica takes the node as it is now,
				// so an unregister since the plan stays done, and the
				// next tick ships the node again.
				info = infoOf(n)
				net.touch(n)
			}
		} else if tgt, _ = net.replicaTarget(info.Key); tgt == nil {
			// Gone while the batch was in flight (held by key for
			// compaction to judge), and no host for the key now.
			if tgt = net.peers[b.To]; tgt == nil {
				continue
			}
		}
		net.placeReplica(n, info, tgt)
		count++
		net.charge(1, tgt.ID != b.From)
	}
	net.Replication.SnapshotMsgs += count
	return count
}

// CompactReplicas drops the snapshots of nodes that no longer exist —
// except those lost to a crash that has not been recovered yet, which
// are exactly the snapshots Recover needs. Only the store by key holds
// snapshots of keys out of the index, so only it is looked at.
func (net *Network) CompactReplicas() {
	for k, e := range net.replicas {
		if !net.pendingLost[k] {
			e.at.replicas--
			delete(net.replicas, k)
		}
	}
}

// Replicate snapshots the state of every tree node that changed since
// the last tick to its host's ring successor (one message per node,
// counted as maintenance) and compacts stale snapshots. It returns the
// number of nodes replicated.
func (net *Network) Replicate() int {
	count := 0
	for _, b := range net.ReplicaPlan() {
		count += net.AcceptReplicas(b)
	}
	net.CompactReplicas()
	return count
}

// RehomeReplicas moves every replica whose successor target changed —
// after a recovery or a balancing round — back to the peer the
// placement rule names: it re-homes every host.
func (net *Network) RehomeReplicas() (msgs, moved int) {
	return net.rehome(slices.Collect(maps.Values(net.peers))...)
}

// rehome moves to its target the replica of every node the given hosts
// run. Given every peer whose nodes or ring successor a change altered,
// it moves what a rescan of the index would: every other live node's
// replica is on its target already (a key back in the index takes its
// replica to its target as it is placed: hostNode, Recover). Replicas of crashed, unrecovered nodes stay where they
// are (they are the recovery state). Transfers are batched per
// source→target pair: one transfer message per pair, one transferred
// node per snapshot.
func (net *Network) rehome(hosts ...*Peer) (msgs, moved int) {
	batches := make(map[[2]*Peer]bool)
	move := func(n *Node, to *Peer) {
		e, ok := net.slotOf(n)
		if !ok || e.at == to {
			return
		}
		batches[[2]*Peer{e.at, to}] = true
		moveReplica(e, to)
		moved++
	}
	for _, h := range hosts {
		succ := net.successorOf(h)
		for _, n := range h.nodes {
			move(n, succ)
		}
	}
	msgs = len(batches)
	net.countTransfers(msgs, moved)
	return msgs, moved
}

// countTransfers accounts msgs replica transfer messages moving moved
// replicas.
func (net *Network) countTransfers(msgs, moved int) {
	net.Replication.TransferMsgs += msgs
	net.Replication.TransferredNodes += moved
	net.charge(msgs, true)
}

// ReplicaHolder reports which peer holds the replica of node k.
func (net *Network) ReplicaHolder(k keys.Key) (keys.Key, bool) {
	_, at, ok := net.ReplicaOf(k)
	return at, ok
}

// ReplicaOf returns the replica of node k and the peer holding it.
func (net *Network) ReplicaOf(k keys.Key) (Replica, keys.Key, bool) {
	e := net.replicas[k]
	if n := net.nodes[k]; n != nil && net.slots != nil {
		e = net.slots[n.pos]
	}
	if e.at == nil {
		return Replica{}, keys.Epsilon, false
	}
	return e.Replica, e.at.ID, true
}

// NumReplicas returns the total number of replica snapshots held
// across all peers.
func (net *Network) NumReplicas() int {
	count := 0
	for _, p := range net.peers {
		count += p.replicas
	}
	return count
}

// FailPeer crashes the peer with the given id: its node states vanish
// without transfer, the replica set it held for its predecessor
// vanishes with it, and the ring links are mended around it. The tree
// is left with dangling references; call Recover before further
// tree-routed operations.
func (net *Network) FailPeer(id keys.Key) error {
	p, ok := net.peers[id]
	if !ok {
		return fmt.Errorf("core: failure of unknown peer %q", id)
	}
	if net.NumPeers() == 1 {
		return fmt.Errorf("core: cannot crash the last peer")
	}
	net.dropPeer(p)
	// The crashed peer's replica set is gone with it: its predecessor's
	// live nodes, whose replicas it held, are stamped for the next tick.
	for _, n := range net.peers[p.Pred].nodes {
		if e, ok := net.slotOf(n); ok && e.at == p {
			*e = held{}
			net.touch(n)
		}
	}
	maps.DeleteFunc(net.replicas, func(_ keys.Key, e held) bool { return e.at == p })
	if net.pendingLost == nil {
		net.pendingLost = make(map[keys.Key]bool)
	}
	for i := len(p.nodes) - 1; i >= 0; i-- {
		n := p.nodes[i]
		if n.HasData() {
			net.crashed = append(net.crashed, n)
		}
		net.unindexNode(n)
		net.pendingLost[n.Key] = true
		if net.hasRoot && net.root == n.Key {
			net.hasRoot = false
			net.root = keys.Epsilon
		}
	}
	net.Replication.Failures++
	// Failure detection + ring repair messages.
	net.charge(2, true)
	return nil
}

// Recover restores crashed node state from the successor replicas,
// rebuilds the tree links canonically from the surviving data keys,
// and re-homes replicas onto the repaired topology. It returns the
// number of nodes restored from snapshots and the keys of the crashed
// nodes that could not be brought back, or came back without some of
// their values (ascending; only data declared after the last Replicate
// on a crashed peer can appear there).
func (net *Network) Recover() (restored int, lost []keys.Key) {
	// Phase 0: drop the replicas of nodes removed since the last tick,
	// or phase 1 would reinstall them.
	net.CompactReplicas()
	// Phase 1: reinstall every replicated node that is missing: every key
	// the store holds out of the index.
	missing := slices.Collect(maps.Keys(net.replicas))
	keys.SortKeys(missing)
	for _, k := range missing {
		net.placeNode(net.replicas[k].materialize(), keys.Epsilon) // linked by rebuildLinks
	}
	restored = len(missing)
	// Phase 2: anti-entropy link rebuild — skipped when nothing was
	// reinstalled and no crash is pending, i.e. the canonical
	// structure cannot have been damaged since the last repair.
	if restored > 0 || len(net.pendingLost) > 0 {
		net.rebuildLinks()
	}
	// Phase 3: account for what stayed lost — by name, so callers can
	// assert loss windows precisely instead of by cardinality.
	for k := range net.pendingLost {
		if !net.HasNode(k) {
			lost = append(lost, k)
		}
	}
	for _, c := range net.crashed {
		if n, ok := net.nodes[c.Key]; ok && !holdsAll(n.Data, c.Data) {
			lost = append(lost, c.Key) // back, from an older replica
		}
	}
	keys.SortKeys(lost)
	net.pendingLost, net.crashed = nil, nil
	if restored > 0 || len(lost) > 0 {
		// The catalogue changed without passing through the journal
		// funnel: lost keys vanished, and restored nodes may have
		// rolled back to the values of an older replica.
		net.offJournal = true
	}
	net.Replication.RestoredNodes += restored
	net.Replication.LostNodes += len(lost)
	// Phase 4: restored nodes live on today's ring — move their
	// replicas to today's successors.
	net.RehomeReplicas()
	return restored, lost
}

// holdsAll reports whether the ascending set have holds every value of
// want.
func holdsAll(have, want []string) bool {
	for _, v := range want {
		if _, ok := slices.BinarySearch(have, v); !ok {
			return false
		}
	}
	return true
}

// rebuildLinks repairs the tree to the canonical PGCP structure over
// the current data keys (canonical, the pass Validate holds the tree
// to): stale structural nodes are dropped, missing structural nodes
// recreated, and deviating father/child pointers and the root reset.
// One repair message per actually-repaired node is accounted — nodes
// whose links already match the canonical structure cost nothing, so
// repeated recoveries of a mostly-intact tree are cheap.
func (net *Network) rebuildLinks() {
	slab, want := net.canonical()

	// Drop nodes that are not canonical labels (stale structural
	// leftovers; data nodes are always canonical), backwards, as a
	// dropped node's slot takes the last node's.
	for i := len(net.nodeList) - 1; i >= 0; i-- {
		if n := net.nodeList[i]; want[n.Key] == nil {
			net.unindexNode(n)
			net.Replication.RepairMsgs++
			net.Counters.MaintenanceMsgs++
		}
	}
	// Create canonical labels that are missing (structural nodes are
	// derivable; lost data nodes stay lost unless they were
	// replicated, which phase 1 already handled), in the pass's order.
	for _, cn := range slab {
		if !net.HasNode(cn.label) {
			net.placeNode(NodeInfo{Key: cn.label}.materialize(), keys.Epsilon)
		}
	}
	// Reset the pointers and the root that deviate from the canonical
	// structure; relink all edges and fathers, as matching ones may link
	// nodes replaced above.
	net.hasRoot = len(slab) > 0
	for i := range slab {
		cn := &slab[i]
		n := net.nodes[cn.label]
		if !linksCanonical(n, cn) {
			n.Children = cn.kids
			n.Father, n.HasFather = cn.father, cn.hasFather
			net.Replication.RepairMsgs++
			net.Counters.MaintenanceMsgs++
		}
		net.linkChildren(n)
		if n.up = net.nodes[cn.father]; !cn.hasFather {
			n.up, net.root = nil, cn.label
		}
	}
}

// canonical is canonicalPass over the current data keys, sorted, with
// its vertices by label.
func (net *Network) canonical() (slab []canonNode, want map[keys.Key]*canonNode) {
	data := make([]keys.Key, 0, len(net.nodeList))
	for _, n := range net.nodeList {
		if n.HasData() {
			data = append(data, n.Key)
		}
	}
	keys.SortKeys(data)
	slab, _ = canonicalPass(data)
	want = make(map[keys.Key]*canonNode, len(slab))
	for i := range slab {
		want[slab[i].label] = &slab[i]
	}
	return slab, want
}

// canonNode is one vertex of the structure computed by
// canonicalPass: the father and children every live node must carry.
type canonNode struct {
	label     keys.Key
	father    keys.Key
	hasFather bool
	marked    bool       // in a sorted pass (load): its subtree holds a key loaded already
	at        int32      // its edge's position among up's kids
	kids      []Child    // ascending and unlinked, as Node.Children
	up        *canonNode // the father's vertex
	node      *Node      // in a sorted pass, the label's node once installed
}

// linksCanonical reports whether n's links already match the
// canonical structure.
func linksCanonical(n *Node, cn *canonNode) bool {
	if n.HasFather != cn.hasFather || (cn.hasFather && n.Father != cn.father) {
		return false
	}
	return slices.EqualFunc(n.Children, cn.kids, func(a, b Child) bool { return a.Key == b.Key })
}

// canonicalPass computes the canonical PGCP tree over sorted, distinct
// data keys in one linear stack pass — the sorted-batch construction the
// snapshot codec uses — instead of re-routing every key through a fresh
// reference trie. The canonical label set is the keys plus the pairwise
// GCPs of sorted neighbours; the stack holds the rightmost path, and a
// node's final father is known the moment it leaves that path: either
// the label beneath it (still at least as long as the branch point) or
// the branch point itself, interposed. Every label is opened once: a
// branch point that is already a label is a prefix of the last key, so
// it sits on the path, where the unwinding stops. It returns the labels
// in the order it opens them, and each key's.
func canonicalPass(sorted []keys.Key) (slab []canonNode, own []*canonNode) {
	if len(sorted) == 0 {
		return nil, nil
	}
	// The slab is sized to the labels, so it never grows and its
	// pointers hold.
	slab = make([]canonNode, 0, canonicalLabels(sorted))
	own = make([]*canonNode, len(sorted))
	open := func(l keys.Key) *canonNode {
		slab = append(slab, canonNode{label: l})
		return &slab[len(slab)-1]
	}
	attach := func(father, child *canonNode) {
		child.father, child.hasFather, child.up, child.at = father.label, true, father, int32(len(father.kids))
		father.kids = append(father.kids, Child{Key: child.label})
	}
	stack := make([]*canonNode, 1, 16)
	own[0] = open(sorted[0])
	stack[0] = own[0]
	for i := 1; i < len(sorted); i++ {
		g := keys.GCP(sorted[i-1], sorted[i])
		// Unwind the rightmost path down to the branch point; after
		// this loop the top of the stack is exactly g. A node is
		// attached only as it leaves the path — while it remains on
		// it, a later key could still interpose a branch beneath the
		// tentative father.
		for len(stack[len(stack)-1].label) > len(g) {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if len(stack) > 0 && len(stack[len(stack)-1].label) >= len(g) {
				attach(stack[len(stack)-1], top)
				continue
			}
			// g sits strictly between top and the rest of the path
			// (or the path is exhausted): interpose it.
			gn := open(g)
			attach(gn, top)
			stack = append(stack, gn)
		}
		own[i] = open(sorted[i])
		stack = append(stack, own[i])
	}
	for len(stack) > 1 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		attach(stack[len(stack)-1], top)
	}
	return slab, own
}

// canonicalLabels counts the labels canonicalPass opens over sorted: the
// keys and each branch point interposed, by the same unwinding over the
// lengths of the labels on the path.
func canonicalLabels(sorted []keys.Key) int {
	var buf [32]int
	path, n := append(buf[:0], len(sorted[0])), len(sorted)
	for i := 1; i < len(sorted); i++ {
		g := len(keys.GCP(sorted[i-1], sorted[i]))
		for path[len(path)-1] > g {
			if path = path[:len(path)-1]; len(path) == 0 || path[len(path)-1] < g {
				path, n = append(path, g), n+1
			}
		}
		path = append(path, len(sorted[i]))
	}
	return n
}
