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
}

// held is one entry of the replica index: a node's snapshot and its
// holder. A move is a write of at, so a rename moves nothing.
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

// placeReplica installs (or refreshes) info on peer tgt, in place of
// any copy elsewhere. Counters are the caller's job.
func (net *Network) placeReplica(info Replica, tgt *Peer) {
	if e, ok := net.replicas[info.Key]; ok {
		e.at.replicas--
	}
	tgt.replicas++
	net.replicas[info.Key] = held{tgt, info}
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
// The batches share one array, sized by a first pass that stamps the
// nodes whose load moved, so a plan allocates the same few times
// whatever it ships.
func (net *Network) ReplicaPlan() []ReplicaBatch {
	epoch := net.epoch
	net.epoch++
	ids, total := net.ring.IDs(), 0
	for _, id := range ids {
		for _, n := range net.peers[id].nodes {
			if n.stamp != epoch && n.Load() != 0 && !net.loadReplicated(n) {
				n.stamp = epoch
			}
			if n.stamp == epoch {
				total++
			}
		}
	}
	if total == 0 {
		return nil
	}
	infos, out := make([]Replica, 0, total), make([]ReplicaBatch, 0, len(ids))
	for _, id := range ids {
		from := len(infos)
		for _, n := range net.peers[id].nodes {
			if n.stamp == epoch {
				infos = append(infos, infoOf(n))
			}
		}
		if len(infos) > from {
			succ, _ := net.ring.Successor(id)
			out = append(out, ReplicaBatch{From: id, To: succ, Infos: infos[from:len(infos):len(infos)]})
		}
	}
	return out
}

// loadReplicated reports whether n's replica holds n's current-unit
// load. Discoveries count visits without a stamp (the concurrent
// engines' run under the read lock), so a loaded node is compared with
// its replica instead.
func (net *Network) loadReplicated(n *Node) bool {
	e, ok := net.replicas[n.Key]
	return ok && e.LoadCur == n.Load()
}

// AcceptReplicas installs one shipped batch, re-routing entries whose
// placement changed while the batch was in flight: the shipped target
// is only a hint — the successor rule at install time wins, so a
// topology change racing a concurrent engine's Replicate tick cannot
// pin a replica on a stale successor. A snapshot its node no longer
// matches is installed as the node is now: a write since the plan, an
// acked unregister among them, is never undone by a crash. It returns
// the number of snapshots installed and accounts them as replication
// maintenance traffic.
func (net *Network) AcceptReplicas(from, to keys.Key, infos []Replica) int {
	count := 0
	for _, info := range infos {
		var tgt *Peer
		if n, ok := net.nodes[info.Key]; ok {
			tgt = net.successorOf(n.host)
			if !n.captured(info) {
				// Changed since the plan, or a batch delivered after a
				// later tick's: the replica takes the node as it is now,
				// so an unregister since the plan stays done, and the
				// next tick ships the node again.
				info = infoOf(n)
				net.touch(n)
			}
		} else {
			// Gone while the batch was in flight: compaction judges it.
			if tgt, ok = net.replicaTarget(info.Key); !ok {
				if tgt, ok = net.peers[to]; !ok {
					continue
				}
			}
			net.dropped = append(net.dropped, info.Key)
		}
		net.placeReplica(info, tgt)
		count++
		net.charge(1, tgt.ID != from)
	}
	net.Replication.SnapshotMsgs += count
	return count
}

// replicaSlack bounds the room the replica index keeps for entries it
// no longer holds: a Go map never shrinks, so once it has lost a
// replicaSlack-th of its size since it was last built it is rebuilt at
// size. A rebuild costs the whole map, so rebuilding after every loss
// would make each tick cost the catalogue again.
const replicaSlack = 8

// CompactReplicas drops the snapshots of nodes that no longer exist —
// except those lost to a crash that has not been recovered yet, which
// are exactly the snapshots Recover needs. Only the keys that left the
// index holding a replica since the last compaction can be stale, so
// only they are looked at; one whose replica stays is kept for rehome
// until its node is back with the replica on its target. The index is
// rebuilt at size once it has lost a replicaSlack-th of its entries.
func (net *Network) CompactReplicas() {
	var kept []keys.Key
	for _, k := range net.dropped {
		e, ok := net.replicas[k]
		n, live := net.nodes[k]
		switch {
		case !ok || live && e.at == net.successorOf(n.host):
		case live || net.pendingLost[k]:
			kept = append(kept, k)
		default:
			e.at.replicas--
			delete(net.replicas, k)
			net.churn++
		}
	}
	net.dropped = kept
	if net.churn > 0 && replicaSlack*net.churn >= len(net.replicas) {
		net.replicas, net.churn = maps.Clone(net.replicas), 0
	}
}

// Replicate snapshots the state of every tree node that changed since
// the last tick to its host's ring successor (one message per node,
// counted as maintenance) and compacts stale snapshots. It returns the
// number of nodes replicated.
func (net *Network) Replicate() int {
	count := 0
	for _, b := range net.ReplicaPlan() {
		count += net.AcceptReplicas(b.From, b.To, b.Infos)
	}
	net.CompactReplicas()
	return count
}

// RehomeReplicas moves every replica whose successor target changed —
// after a recovery or a balancing round — back to the peer the
// placement rule names: it re-homes every host.
func (net *Network) RehomeReplicas() (msgs, moved int) {
	hosts := make([]*Peer, 0, len(net.peers))
	for _, id := range net.ring.IDs() {
		hosts = append(hosts, net.peers[id])
	}
	return net.rehome(hosts...)
}

// rehome moves to its target the replica of every node the given hosts
// run, and of every key in dropped that is a live node again. Given every
// peer whose nodes or ring successor a change altered, it moves what a
// rescan of the index would: every other live node's replica is on its
// target already. Replicas of crashed, unrecovered nodes stay where they
// are (they are the recovery state). Transfers are batched per
// source→target pair: one transfer message per pair, one transferred
// node per snapshot.
func (net *Network) rehome(hosts ...*Peer) (msgs, moved int) {
	batches := make(map[[2]*Peer]bool)
	move := func(n *Node, to *Peer) {
		e, ok := net.replicas[n.Key]
		if !ok || e.at == to {
			return
		}
		batches[[2]*Peer{e.at, to}] = true
		net.placeReplica(e.Replica, to)
		moved++
	}
	for _, h := range hosts {
		succ := net.successorOf(h)
		for _, n := range h.nodes {
			move(n, succ)
		}
	}
	for _, k := range net.dropped {
		if n, ok := net.nodes[k]; ok {
			move(n, net.successorOf(n.host))
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
	e, ok := net.replicas[k]
	if !ok {
		return Replica{}, keys.Epsilon, false
	}
	return e.Replica, e.at.ID, true
}

// NumReplicas returns the total number of replica snapshots held
// across all peers.
func (net *Network) NumReplicas() int { return len(net.replicas) }

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
	// The crashed peer's replica set is gone with it; its predecessor's
	// live nodes are stamped, so the next tick re-replicates them.
	for k, e := range net.replicas {
		if e.at == p {
			delete(net.replicas, k)
			net.churn++
			if n, ok := net.nodes[k]; ok {
				net.touch(n)
			}
		}
	}
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
	// Phase 1: reinstall every replicated node that is missing.
	var missing []keys.Key
	for k := range net.replicas {
		if !net.HasNode(k) {
			missing = append(missing, k)
		}
	}
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
