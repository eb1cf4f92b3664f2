package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dlpt/internal/keys"
)

// InsertData declares a service identified by key k with the given
// value (Section 3.2). The DataInsertion request enters the tree on a
// random node and Algorithm 3 routes it, creating at most two tree
// nodes (the key's node and a PGCP parent). The first key of an empty
// tree becomes the root directly.
func (net *Network) InsertData(k keys.Key, value string, r *rand.Rand) error {
	if net.NumPeers() == 0 {
		return fmt.Errorf("core: insert %q into network without peers", k)
	}
	if !net.Alphabet.Valid(k) {
		return fmt.Errorf("core: key %q not in alphabet", k)
	}
	if !net.hasRoot {
		net.hostNode(NodeInfo{Key: k, Data: []string{value}}, keys.Epsilon) // the root: nothing to link
		net.journal(false, k, value)
		return nil
	}
	entry, from, _ := net.RandomEntry(r)
	for at, fwd := (Child{Key: entry}), true; fwd; {
		p, peer, ok := net.Follow(at)
		if !ok {
			return fmt.Errorf("core: DataInsertion addressed to absent node %q", at.Key)
		}
		net.charge(1, from != peer.ID)
		var err error
		if at, fwd, err = net.handleDataInsertion(peer, p, k, value); err != nil {
			return err
		}
		from = peer.ID
	}
	net.journal(false, k, value)
	return nil
}

// journal feeds the persistence hook, if one is installed.
func (net *Network) journal(remove bool, k keys.Key, value string) {
	if net.Journal != nil {
		net.Journal(remove, k, value)
	}
}

// InsertKey inserts k with itself as value (the paper's convention).
func (net *Network) InsertKey(k keys.Key, r *rand.Rand) error {
	return net.InsertData(k, string(k), r)
}

// KV is one key/value registration, the unit of batch insertion
// shared by the deployment runtimes.
type KV struct {
	Key   keys.Key
	Value string
}

// InsertBatch declares every entry in order, stopping at the first
// failure. Into an overlay with peers and no node it builds the tree in
// one sorted pass (load) and leaves exactly what InsertData entry by
// entry leaves — nodes, hosts, links, values, stamps, the order of the
// node index and of every ν_P, the journal records in batch order and
// the generator's draws — but the maintenance counters, charged the Host
// message of each node in place of the routed hops.
func (net *Network) InsertBatch(entries []KV, r *rand.Rand) error {
	if net.NumPeers() == 0 || net.NumNodes() > 0 {
		for _, e := range entries {
			if err := net.InsertData(e.Key, e.Value, r); err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if bad := slices.IndexFunc(entries, func(e KV) bool { return !net.Alphabet.Valid(e.Key) }); bad >= 0 {
		entries, err = entries[:bad], fmt.Errorf("core: key %q not in alphabet", entries[bad].Key)
	}
	net.load(entries, func(i int) {
		if n := net.NumNodes(); n > 0 {
			r.Intn(n) // InsertData's draw of the entry node
		}
		net.journal(false, entries[i].Key, entries[i].Value)
	})
	return err
}

// load builds the PGCP tree over entries into an overlay with peers and
// no node, creating the nodes in the order per-key insertion does and
// calling entry(i), if set, before entry i's. Entry i creates at most
// two: its branch point, unless that is a node already, then its own.
// The branch point is the longest prefix its key shares with an earlier
// entry's key: the deepest node at or above the key's whose subtree
// holds one, which the walk that marks those subtrees finds.
// canonicalPass gives every node its father and children, hostNode
// installs it, and the pass's own vertices link them once every node is
// in: no link costs a probe of the index.
func (net *Network) load(entries []KV, entry func(i int)) {
	// One sort of the entries' positions by key gives the distinct keys
	// in order and each entry's index among them (at).
	idx := make([]int, 2*len(entries))
	perm, at := idx[:len(entries)], idx[len(entries):]
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return keys.Compare(entries[a].Key, entries[b].Key) })
	ks := make([]keys.Key, 0, len(entries))
	for _, i := range perm {
		if len(ks) == 0 || ks[len(ks)-1] != entries[i].Key {
			ks = append(ks, entries[i].Key)
		}
		at[i] = len(ks) - 1
	}
	vals := make([][]string, len(ks))
	for i, e := range entries {
		vals[at[i]] = append(vals[at[i]], e.Value)
	}
	for j := range vals {
		slices.Sort(vals[j])
		vals[j] = slices.Compact(vals[j])
	}
	slab, own := canonicalPass(ks)
	net.nodes = make(map[keys.Key]*Node, len(slab))
	install := func(c *canonNode) {
		if c != nil && c.node == nil {
			c.node = net.hostNode(NodeInfo{Key: c.label, Father: c.father, HasFather: c.hasFather, Children: c.kids}, keys.Epsilon)
		}
	}
	for i, j := range at {
		if entry != nil {
			entry(i)
		}
		branch := own[j]
		for ; branch != nil && !branch.marked; branch = branch.up {
			branch.marked = true
		}
		install(branch)
		install(own[j])
		own[j].node.Data = vals[j]
	}
	for i := range slab {
		if c := &slab[i]; c.up != nil {
			c.node.up, c.up.node.Children[c.at].node = c.up.node, c.node
		}
	}
}

// handleDataInsertion is Algorithm 3, run on node p hosted by peer: it
// places k, or returns the edge the DataInsertion message is forwarded
// along (fwd).
func (net *Network) handleDataInsertion(peer *Peer, p *Node, k keys.Key, value string) (next Child, fwd bool, err error) {
	switch {
	case p.Key == k:
		// Line 3.03: the proper node.
		if p.addValue(value) {
			net.touch(p)
		}
		return Child{}, false, nil

	case keys.IsProperPrefix(p.Key, k):
		// Lines 3.04-3.09: the sought node is in p's subtree.
		if q, ok := p.BestChildFor(k); ok {
			return q, true, nil
		}
		// Create k as a new child of p; the host search starts at p
		// itself (line 3.08).
		info := NodeInfo{Key: k, Father: p.Key, HasFather: true, Data: []string{value}}
		p.addChild(k, nil)
		return Child{}, false, net.routeSearchingHost(peer.ID, p.Key, info)

	case keys.IsProperPrefix(k, p.Key):
		// Lines 3.10-3.20: the sought node is upward.
		if !p.HasFather {
			// k becomes the new root, adopting p (lines 3.11-3.13).
			info := NodeInfo{Key: k, Children: []Child{{Key: p.Key}}, Data: []string{value}}
			p.Father, p.HasFather, p.up = k, true, nil
			return Child{}, false, net.routeSearchingHost(peer.ID, p.Key, info)
		}
		if keys.IsPrefix(k, p.Father) {
			// k is also a prefix of f_p: forward upward (line 3.16).
			return p.FatherEdge(), true, nil
		}
		// k sits strictly between f_p and p (lines 3.18-3.20).
		info := NodeInfo{Key: k, Father: p.Father, HasFather: true,
			Children: []Child{{Key: p.Key}}, Data: []string{value}}
		father := p.Father
		p.Father, p.HasFather, p.up = k, true, nil
		if err := net.routeSearchingHost(peer.ID, father, info); err != nil {
			return Child{}, false, err
		}
		return Child{}, false, net.applyUpdateChild(peer.ID, father, p.Key, k)

	default:
		// Lines 3.21-3.31: k and p diverge.
		if p.HasFather && len(keys.GCP(k, p.Key)) == len(keys.GCP(k, p.Father)) {
			// The father shares the same prefix with k: forward up
			// (lines 3.22-3.23).
			return p.FatherEdge(), true, nil
		}
		// p and k become siblings under a created PGCP parent
		// g = GCP(p,k) (lines 3.24-3.31). The paper's line 3.30 sends
		// the k node with father p; structurally the father is g, so
		// we use g (documented deviation).
		g := keys.GCP(p.Key, k)
		ginfo := NodeInfo{Key: g, Father: p.Father, HasFather: p.HasFather,
			Children: []Child{{Key: min(p.Key, k)}, {Key: max(p.Key, k)}}}
		kinfo := NodeInfo{Key: k, Father: g, HasFather: true, Data: []string{value}}
		father, hadFather := p.Father, p.HasFather
		p.Father, p.HasFather, p.up = g, true, nil
		start := p.Key
		if hadFather {
			start = father
		}
		if err := net.routeSearchingHost(peer.ID, start, ginfo); err != nil {
			return Child{}, false, err
		}
		if hadFather {
			if err := net.applyUpdateChild(peer.ID, father, p.Key, g); err != nil {
				return Child{}, false, err
			}
		}
		return Child{}, false, net.routeSearchingHost(peer.ID, start, kinfo)
	}
}

// applyUpdateChild performs Algorithm 3's UpdateChild message on the
// node with key father, replacing old with new in its child set,
// accounted as one message.
func (net *Network) applyUpdateChild(fromPeer keys.Key, father, old, new keys.Key) error {
	n, p, ok := net.NodeAt(father)
	if !ok {
		return fmt.Errorf("core: UpdateChild to absent node %q", father)
	}
	net.charge(1, p.ID != fromPeer)
	n.removeChild(old)
	n.addChild(new, net.nodes[new])
	return nil
}

// routeSearchingHost performs the host search of Algorithm 3 lines
// 3.32-3.37: starting at node `at`, descend to the greatest child
// strictly below the key being placed until no such child exists, then
// hand the node to the local peer (placeNode finishes with the
// peer-level walk to the true owner). Each hop is accounted as one
// message.
func (net *Network) routeSearchingHost(fromPeer keys.Key, at keys.Key, info NodeInfo) error {
	cur := Child{Key: at}
	from := fromPeer
	for {
		n, p, ok := net.Follow(cur)
		if !ok {
			return fmt.Errorf("core: SearchingHost routed to absent node %q", cur.Key)
		}
		net.charge(1, p.ID != from)
		q, ok := n.MaxChildAtMost(info.Key, false)
		if !ok {
			net.linkNode(net.hostNode(info, p.ID))
			return nil
		}
		cur = q
		from = p.ID
	}
}

// placeNode puts n on its owner peer and in the index. from is the peer
// at which the host search bottomed out (ε means "unknown, route from
// scratch"). Under the lexicographic placement the walk follows
// successor links; under the hashed placement the owner is one DHT
// lookup away (modelled as ceil(log2 N) messages).
func (net *Network) placeNode(n *Node, from keys.Key) {
	var owner *Peer
	switch net.Placement {
	case PlacementHashed:
		id, _ := net.HostOf(n.Key)
		owner = net.peers[id]
		cost := int(math.Ceil(math.Log2(float64(net.NumPeers() + 1))))
		net.charge(cost, true)
	default:
		cur, ok := net.peers[from]
		if !ok {
			id, _ := net.HostOf(n.Key)
			cur = net.peers[id]
		}
		for !keys.BetweenRightIncl(n.Key, cur.Pred, cur.ID) {
			cur = net.peers[cur.Succ]
			net.charge(1, true)
		}
		owner = cur
	}
	// The Host message itself.
	net.charge(1, owner.ID != from)
	owner.adopt(n)
	net.indexNode(n)
	if !n.HasFather {
		net.root = n.Key
		net.hasRoot = true
	}
}

// hostNode places a node a registration creates, and returns it for the
// caller to link. A key created again may still hold the replica of its
// earlier node, placed on the ring of that time: it follows the node to
// the successor rule. (Recover re-homes the nodes it creates in one pass.)
func (net *Network) hostNode(info NodeInfo, from keys.Key) *Node {
	n := info.materialize()
	net.placeNode(n, from)
	if e, ok := net.slotOf(n); ok && e.at != net.successorOf(n.host) {
		moveReplica(e, net.successorOf(n.host))
		net.countTransfers(1, 1)
	}
	return n
}

// RemoveData unregisters value from key k. This operation is not part
// of the paper's protocol (services only appear in the evaluation);
// it is provided for the public API and implemented as a direct state
// update on the owner peer followed by structural compaction mirrored
// from the reference trie semantics: a dataless leaf is deleted and a
// dataless single-child interior node is spliced out.
func (net *Network) RemoveData(k keys.Key, value string) bool {
	n, ok := net.nodes[k]
	if !ok || !n.removeValue(value) {
		return false
	}
	net.touch(n)
	net.Counters.MaintenanceMsgs++
	if e, ok := net.slotOf(n); ok {
		// The unregister reaches the replica with the value, so a crash
		// of the host before the next tick cannot bring it back.
		e.Data, _ = removeValue(e.Data, value)
	}
	net.compactNode(n)
	net.journal(true, k, value)
	return true
}

// compactNode prunes structurally redundant dataless nodes upward,
// stopping at a neighbour lost to a crash (Recover drops the rest).
func (net *Network) compactNode(n *Node) {
	for n != nil && !n.HasData() {
		switch len(n.Children) {
		case 0:
			net.unindexNode(n)
			if !n.HasFather {
				net.hasRoot = false
				net.root = keys.Epsilon
				return
			}
			fn, _, ok := net.Follow(n.FatherEdge())
			if !ok {
				return
			}
			fn.removeChild(n.Key)
			net.Counters.MaintenanceMsgs++
			n = fn
		case 1:
			cn, _, ok := net.Follow(n.Children[0])
			fn, _, okf := net.Follow(n.FatherEdge())
			if !ok || n.HasFather && !okf {
				return
			}
			if !n.HasFather {
				// Root with a single child: the child becomes root.
				cn.Father, cn.HasFather, cn.up = keys.Epsilon, false, nil
				net.root = cn.Key
				net.unindexNode(n)
				net.Counters.MaintenanceMsgs++
				return
			}
			cn.Father, cn.up = n.Father, fn
			fn.removeChild(n.Key)
			fn.addChild(cn.Key, cn)
			net.unindexNode(n)
			net.Counters.MaintenanceMsgs += 2
			return
		default:
			return
		}
	}
}
