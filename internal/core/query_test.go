package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dlpt/internal/keys"
	"dlpt/internal/trie"
	"dlpt/internal/workload"
)

func populate(t *testing.T, seed int64, ks ...keys.Key) (*Network, *rand.Rand) {
	t.Helper()
	net, r := buildNetwork(t, 8, 1<<30, seed)
	for _, k := range ks {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	return net, r
}

func TestRangeQueryDistributed(t *testing.T) {
	corpus := []keys.Key{"dgemm", "dgemv", "saxpy", "sgemm", "sgemv", "strsm"}
	net, r := populate(t, 31, corpus...)
	res := net.RangeQuery("saxpy", "sgemv", r)
	want := []keys.Key{"saxpy", "sgemm", "sgemv"}
	if !reflect.DeepEqual(res.Keys, want) {
		t.Fatalf("RangeQuery = %v, want %v", res.Keys, want)
	}
	if res.NodesVisited == 0 {
		t.Fatalf("no nodes visited")
	}
	if res.PhysicalHops > res.LogicalHops {
		t.Fatalf("physical %d > logical %d", res.PhysicalHops, res.LogicalHops)
	}
	if out := net.RangeQuery("z", "a", r); out.Keys != nil {
		t.Fatalf("inverted range = %v", out.Keys)
	}
	if out := net.RangeQuery("e", "r", r); len(out.Keys) != 0 {
		t.Fatalf("empty interval = %v", out.Keys)
	}
	full := net.RangeQuery("a", "zz", r)
	if len(full.Keys) != len(corpus) {
		t.Fatalf("full range = %v", full.Keys)
	}
}

func TestCompleteDistributed(t *testing.T) {
	corpus := []keys.Key{"sgemm", "sgemv", "strsm", "saxpy", "dgemm"}
	net, r := populate(t, 32, corpus...)
	res := net.Complete("sge", r)
	want := []keys.Key{"sgemm", "sgemv"}
	if !reflect.DeepEqual(res.Keys, want) {
		t.Fatalf("Complete(sge) = %v, want %v", res.Keys, want)
	}
	all := net.Complete("", r)
	if len(all.Keys) != len(corpus) {
		t.Fatalf("Complete(ε) = %v", all.Keys)
	}
	if res := net.Complete("zzz", r); len(res.Keys) != 0 {
		t.Fatalf("Complete(zzz) = %v", res.Keys)
	}
	// Exact key is its own completion.
	if res := net.Complete("saxpy", r); !reflect.DeepEqual(res.Keys, []keys.Key{"saxpy"}) {
		t.Fatalf("Complete(saxpy) = %v", res.Keys)
	}
}

func TestQueryEmptyTree(t *testing.T) {
	net, r := buildNetwork(t, 3, 10, 33)
	if res := net.RangeQuery("a", "z", r); len(res.Keys) != 0 || res.NodesVisited != 0 {
		t.Fatalf("empty tree range = %+v", res)
	}
	if res := net.Complete("a", r); len(res.Keys) != 0 {
		t.Fatalf("empty tree complete = %+v", res)
	}
}

// referenceTrie rebuilds the network's catalogue into a centralized
// trie, the oracle of the distributed queries.
func referenceTrie(net *Network) *trie.Tree {
	t := trie.New()
	for _, n := range net.nodeList {
		for _, v := range n.Data {
			t.Insert(n.Key, v)
		}
	}
	return t
}

// TestQueryMatchesSnapshot differentially checks the distributed
// traversal against the reference trie on random populations.
func TestQueryMatchesSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	net, _ := buildNetwork(t, 10, 1<<30, 35)
	for i := 0; i < 250; i++ {
		if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 2, 8), r); err != nil {
			t.Fatal(err)
		}
	}
	snap := referenceTrie(net)
	for trial := 0; trial < 40; trial++ {
		lo := keys.LowerAlnum.RandomKey(r, 1, 6)
		hi := keys.LowerAlnum.RandomKey(r, 1, 6)
		if hi < lo {
			lo, hi = hi, lo
		}
		got := net.RangeQuery(lo, hi, r).Keys
		want := snap.Range(lo, hi, 0)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: range [%q,%q] = %v, want %v", trial, lo, hi, got, want)
		}
	}
	for trial := 0; trial < 40; trial++ {
		prefix := keys.LowerAlnum.RandomKey(r, 0, 4)
		got := net.Complete(prefix, r).Keys
		want := snap.Complete(prefix, 0)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: complete %q = %v, want %v", trial, prefix, got, want)
		}
	}
}

// probeWalker is the walk phase resolving every frame by its key: each
// popped frame is probed in the index (NodeAt) and children are stacked
// by key, with QueryWalker's counting. It is the oracle the walker's
// link following is held against.
type probeWalker struct {
	net            *Network
	match, explore func(keys.Key) bool
	stack          []probeFrame
	res            QueryResult
}

type probeFrame struct {
	key, from keys.Key
	root      bool
}

// step is QueryWalker.StepN(out, 0, 1) in the walk phase: frames are
// popped until one visit is counted or none is left.
func (p *probeWalker) step(out []keys.Key) ([]keys.Key, bool) {
	for len(p.stack) > 0 {
		fr := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		n, h, ok := p.net.NodeAt(fr.key)
		if !ok {
			continue
		}
		if !fr.root {
			p.res.LogicalHops++
			p.res.NodesVisited++
			if h.ID != fr.from {
				p.res.PhysicalHops++
			}
		}
		if n.HasData() && p.match(n.Key) {
			out = append(out, n.Key)
		}
		kids := n.ChildrenSorted()
		for i := len(kids) - 1; i >= 0; i-- {
			if p.explore(kids[i]) {
				p.stack = append(p.stack, probeFrame{key: kids[i], from: h.ID})
			}
		}
		if !fr.root {
			return out, true
		}
	}
	return out, false
}

// TestWalkFollowsLinksAcrossWrites resumes a QueryWalker and the probe
// walker at the root and steps them one visit at a time in lockstep.
// Between steps a write lands on a node still stacked for a later visit:
// a removal that compacts it away, an insertion that splits the edge
// above it, a move to another peer, a join and a leave, and a crash of
// its host after its value was removed, recovered from the last
// snapshot — which re-materializes the node, with the value, under the
// same key. A link to a node that left the index is never followed, so
// the two walkers must agree on every step, the keys and the counters.
func TestWalkFollowsLinksAcrossWrites(t *testing.T) {
	net, r := buildNetwork(t, 8, 1<<30, 30)
	for _, k := range workload.GridCorpus(300) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	root, _ := net.Root()
	w := NewQueryWalker(net, QuerySpec{Prefix: root})
	w.ResumeWalk(root, QueryResult{})
	p := &probeWalker{net: net, match: w.match, explore: w.explore,
		stack: []probeFrame{{key: root, root: true}}}

	// stacked returns the node of a frame waiting for a later visit,
	// scanning from a step-dependent slot, that satisfies ok.
	stacked := func(step int, ok func(n *Node) bool) (*Node, bool) {
		for i := range w.stack {
			fr := w.stack[(i+step)%len(w.stack)]
			if n, _, found := net.NodeAt(fr.edge.Key); found && !fr.root && ok(n) {
				return n, true
			}
		}
		return nil, false
	}
	anyNode := func(*Node) bool { return true }
	removeAll := func(n *Node) {
		for _, v := range n.SortedValues() {
			net.RemoveData(n.Key, v)
		}
	}
	var moveBack func()
	writes := make(map[string]int)
	write := func(step int) {
		if moveBack != nil {
			moveBack()
			moveBack = nil
		}
		switch step % 5 {
		case 0:
			if n, ok := stacked(step, func(n *Node) bool { return n.HasData() && len(n.Children) <= 1 }); ok {
				removeAll(n)
				writes["remove"]++
			}
		case 1:
			split := func(n *Node) bool { return len(n.Key)-len(n.Father) >= 2 }
			if n, ok := stacked(step, split); ok {
				last := n.Key[len(n.Key)-1:]
				c := keys.Key("z")
				if last == c {
					c = "y"
				}
				if err := net.InsertKey(n.Key[:len(n.Key)-1]+c, r); err != nil {
					t.Fatal(err)
				}
				writes["split"]++
			}
		case 2:
			if n, ok := stacked(step, anyNode); ok {
				from := n.host.ID
				to, _ := net.ring.Successor(from)
				if err := net.MoveNode(n.Key, from, to); err != nil {
					t.Fatal(err)
				}
				moveBack = func() {
					if err := net.MoveNode(n.Key, to, from); err != nil {
						t.Fatal(err)
					}
				}
				writes["move"]++
			}
		case 3:
			if n, ok := stacked(step, anyNode); ok {
				if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<30, r); err != nil {
					t.Fatal(err)
				}
				if err := net.LeavePeer(n.host.ID); err != nil {
					t.Fatal(err)
				}
				writes["join+leave"]++
			}
		case 4:
			if n, ok := stacked(step, (*Node).HasData); ok {
				net.Replicate()
				host := n.host.ID
				removeAll(n)
				if err := net.FailPeer(host); err != nil {
					t.Fatal(err)
				}
				net.Recover()
				if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<30, r); err != nil {
					t.Fatal(err)
				}
				writes["crash+recover"]++
			}
		}
	}

	var got, want []keys.Key
	for step := 0; ; step++ {
		var more, pmore bool
		got, more = w.StepN(got, 0, 1)
		want, pmore = p.step(want)
		if more != pmore || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(w.Stats(), p.res) {
			t.Fatalf("step %d (writes %v): walker %v, %q, %+v; probe walker %v, %q, %+v",
				step, writes, more, got, w.Stats(), pmore, want, p.res)
		}
		if !more {
			break
		}
		write(step)
	}
	if moveBack != nil {
		moveBack()
	}
	mustValidate(t, net)
	for _, kind := range []string{"remove", "split", "move", "join+leave", "crash+recover"} {
		if writes[kind] < 5 {
			t.Errorf("%d %s writes landed on stacked frames, want at least 5", writes[kind], kind)
		}
	}
	t.Logf("%d keys over %d visits, writes %v", len(got), p.res.NodesVisited, writes)

	// The climb: walkers entering at random nodes climb towards ε, the
	// QueryWalker by its father links, the oracle by probing each father's
	// key, one hop at a time in lockstep. Between hops a write lands on the
	// father of the node the climb stands at: a key inserted between the two,
	// which re-parents the node; a removal of the father's values, which
	// splices it out; a crash of its host, recovered from the last snapshot,
	// which re-materializes it under the same key.
	for i := 0; i < 200; i++ { // long edges, where a key fits between
		if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 3, 9), r); err != nil {
			t.Fatal(err)
		}
	}
	climbs := make(map[string]int)
	for trial, step := 0, 0; trial < 150; trial++ {
		entry := net.nodeList[r.Intn(len(net.nodeList))]
		w := NewQueryWalker(net, QuerySpec{})
		w.Start(entry.Key)
		at, want := entry.Key, QueryResult{NodesVisited: 1}
		for ; w.phase == phaseClimb; step++ {
			n, _, ok := net.NodeAt(at)
			if !ok {
				t.Fatalf("trial %d: the climb stands at %q, which is gone", trial, at)
			}
			if f, _, _ := net.NodeAt(n.Father); n.HasFather {
				// split inserts a key between n and f; splice removes the
				// values of one with a single child: one just split in, or f.
				split := func() bool {
					if len(n.Key)-len(f.Key) < 2 {
						return false
					}
					if err := net.InsertKey(n.Key[:len(f.Key)+1], r); err != nil {
						t.Fatal(err)
					}
					climbs["split"]++
					return true
				}
				writes := []func() bool{split, func() bool {
					if split() {
						f, _, _ = net.NodeAt(n.Father)
					}
					if !f.HasData() || len(f.Children) != 1 {
						return false
					}
					removeAll(f)
					climbs["splice"]++
					return true
				}, func() bool {
					net.Replicate()
					if err := net.FailPeer(f.host.ID); err != nil {
						t.Fatal(err)
					}
					net.Recover()
					if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<30, r); err != nil {
						t.Fatal(err)
					}
					climbs["crash+recover"]++
					return true
				}}
				_ = writes[step%3]() || step%3 < 2 && writes[1-step%3]()
			}
			// The oracle's hop: stop where the walker's climb stops.
			n, h, _ := net.NodeAt(at)
			f, fh, okf := net.NodeAt(n.Father)
			w.StepN(nil, 0, 1)
			if n.Key == "" || !n.HasFather || !okf {
				if w.phase == phaseClimb {
					t.Fatalf("trial %d: the walker climbs on from %q", trial, at)
				}
				break
			}
			want.LogicalHops++
			want.NodesVisited++
			if fh.ID != h.ID {
				want.PhysicalHops++
			}
			at = f.Key
			if w.phase != phaseClimb || w.cur.Key != at || !reflect.DeepEqual(w.Stats(), want) {
				t.Fatalf("trial %d step %d (writes %v): walker at %q, %+v; oracle at %q, %+v",
					trial, step, climbs, w.cur.Key, w.Stats(), at, want)
			}
		}
	}
	mustValidate(t, net)
	for _, kind := range []string{"split", "splice", "crash+recover"} {
		if climbs[kind] < 5 {
			t.Errorf("%d %s writes landed on a climb, want at least 5", climbs[kind], kind)
		}
	}
	t.Logf("climbs: writes %v", climbs)
}

// TestQueryLocality checks that the lexicographic mapping keeps most
// of a subtree traversal on few peers: the physical hops of a narrow
// completion stay below its logical hops.
func TestQueryLocality(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	net, _ := buildNetwork(t, 20, 1<<30, 37)
	for i := 0; i < 300; i++ {
		if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 3, 8), r); err != nil {
			t.Fatal(err)
		}
	}
	totLog, totPhys := 0, 0
	for i := 0; i < 50; i++ {
		prefix := keys.LowerAlnum.RandomKey(r, 1, 2)
		res := net.Complete(prefix, r)
		totLog += res.LogicalHops
		totPhys += res.PhysicalHops
	}
	if totLog == 0 {
		t.Skip("no traversal happened")
	}
	if totPhys >= totLog {
		t.Fatalf("subtree traversal crossed peers on every edge: %d/%d", totPhys, totLog)
	}
}
