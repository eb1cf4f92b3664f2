package core

import (
	"math/rand"
	"slices"
	"testing"

	"dlpt/internal/keys"
)

// scanBestChildFor is BestChildFor as a scan over an unordered child
// set: the oracle the binary search is held against.
func scanBestChildFor(nodeKey keys.Key, children map[keys.Key]struct{}, k keys.Key) (keys.Key, bool) {
	base := len(keys.GCP(nodeKey, k))
	var best keys.Key
	bestLen := base
	found := false
	for c := range children {
		if l := len(keys.GCP(c, k)); l > bestLen {
			best, bestLen, found = c, l, true
		}
	}
	return best, found
}

// scanMaxChildAtMost is MaxChildAtMost as a scan over an unordered
// child set.
func scanMaxChildAtMost(children map[keys.Key]struct{}, bound keys.Key, inclusive bool) (keys.Key, bool) {
	var best keys.Key
	found := false
	for c := range children {
		if c > bound || (!inclusive && c == bound) {
			continue
		}
		if !found || c > best {
			best, found = c, true
		}
	}
	return best, found
}

// TestChildSearchMatchesScan holds the two binary searches against
// their scans over seeded random child sets. BestChildFor runs over
// canonical ones, as a valid tree has them: every child extends the
// node's key and no two share the symbol after it. Its probes extend the
// key or a child, are equal to the key or a child, or are no extension
// of the key at all. MaxChildAtMost runs over arbitrary ones: children
// sharing long prefixes with each other and with the probe, empty sets,
// probes equal to a child, and both descent rules.
func TestChildSearchMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, alpha := range []*keys.Alphabet{keys.Binary, keys.LowerAlnum} {
		for trial := 0; trial < 3000; trial++ {
			stem := alpha.RandomKey(r, 0, 8)
			prefix := func() keys.Key { return stem[:r.Intn(len(stem)+1)] }

			canon := &Node{Key: prefix()}
			cset := make(map[keys.Key]struct{})
			next := make(map[byte]bool)
			for i := r.Intn(alpha.Size() + 1); i > 0; i-- { // zero iterations: no child
				if c := canon.Key + alpha.RandomKey(r, 1, 4); !next[c[len(canon.Key)]] {
					next[c[len(canon.Key)]] = true
					cset[c] = struct{}{}
					canon.addChild(c, nil)
				}
			}
			ckids := canon.ChildrenSorted()
			probes := []keys.Key{canon.Key, canon.Key + alpha.RandomKey(r, 1, 5), stem + alpha.RandomKey(r, 0, 2),
				prefix(), alpha.RandomKey(r, 0, 8)}
			if len(ckids) > 0 {
				c := ckids[r.Intn(len(ckids))]
				probes = append(probes, c, c+alpha.RandomKey(r, 1, 3))
			}
			for _, k := range probes {
				gotEdge, gotOK := canon.BestChildFor(k)
				want, wantOK := scanBestChildFor(canon.Key, cset, k)
				if gotOK != wantOK || gotEdge.Key != want {
					t.Fatalf("BestChildFor(%q) at %q over %q = %q, %v; scan %q, %v",
						k, canon.Key, ckids, gotEdge.Key, gotOK, want, wantOK)
				}
			}

			set := make(map[keys.Key]struct{})
			for i := r.Intn(10); i > 0; i-- { // zero iterations: the empty set
				set[prefix()+alpha.RandomKey(r, 0, 4)] = struct{}{}
			}
			n := &Node{Key: prefix()}
			for c := range set {
				n.addChild(c, nil)
			}
			kids := n.ChildrenSorted()
			if len(kids) != len(set) || !strictlyAscending(kids) {
				t.Fatalf("children %q from set of %d", kids, len(set))
			}
			probes = []keys.Key{prefix() + alpha.RandomKey(r, 0, 5), stem + alpha.RandomKey(r, 0, 2), prefix()}
			if len(kids) > 0 {
				probes = append(probes, kids[r.Intn(len(kids))])
			}
			for _, k := range probes {
				for _, inclusive := range []bool{false, true} {
					got, gotOK := n.MaxChildAtMost(k, inclusive)
					want, wantOK := scanMaxChildAtMost(set, k, inclusive)
					if got.Key != want || gotOK != wantOK {
						t.Fatalf("MaxChildAtMost(%q, %v) over %q = %q, %v; scan %q, %v",
							k, inclusive, kids, got.Key, gotOK, want, wantOK)
					}
				}
			}
		}
	}
}

// TestNodeCopiesOut pins the copy-out rule: the node's slices shift in
// place, so what SortedValues, ChildrenSorted and infoOf hand out must
// not follow later mutations.
func TestNodeCopiesOut(t *testing.T) {
	n := Replica{Key: "a", Data: []string{"v2", "v1", "v3"}}.materialize()
	for _, k := range []keys.Key{"ad", "ab", "ac", "ae"} {
		n.addChild(k, nil)
	}
	vals, kids, info := n.SortedValues(), n.ChildrenSorted(), infoOf(n)
	wantVals := []string{"v1", "v2", "v3"}
	wantKids := []keys.Key{"ab", "ac", "ad", "ae"}
	// Each removal leaves spare capacity, so the insertion after it
	// shifts the same backing array.
	n.removeChild("ab")
	n.addChild("aa", nil)
	n.removeChild("ae")
	n.addChild("acc", nil)
	n.removeValue("v1")
	n.addValue("v0")
	if want := []keys.Key{"aa", "ac", "acc", "ad"}; !slices.Equal(n.ChildrenSorted(), want) {
		t.Fatalf("children after mutation %q, want %q", n.ChildrenSorted(), want)
	}
	if want := []string{"v0", "v2", "v3"}; !slices.Equal(n.Data, want) {
		t.Fatalf("values after mutation %q, want %q", n.Data, want)
	}
	for name, got := range map[string][]string{"SortedValues": vals, "infoOf.Data": info.Data} {
		if !slices.Equal(got, wantVals) {
			t.Errorf("%s followed the node: %q, want %q", name, got, wantVals)
		}
	}
	for name, got := range map[string][]keys.Key{"ChildrenSorted": kids} {
		if !slices.Equal(got, wantKids) {
			t.Errorf("%s followed the node: %q, want %q", name, got, wantKids)
		}
	}
	// The other direction: a node materialized from a replica must not
	// share the replica's slices either (a replica set keeps it).
	form := Replica{Key: "b", Data: []string{"x", "y"}}
	m := form.materialize()
	m.removeValue("x")
	if !slices.Equal(form.Data, []string{"x", "y"}) {
		t.Fatalf("materialize shares the form's values: %q", form.Data)
	}
}

// TestValuesCopyOnShip: a tick shares each shipped node's values with
// its replica, so the node's next value write must leave the shipped
// slice as it was — an insertion that would shift it in place, a removal
// that would shift it or clear its tail, and one that empties it.
func TestValuesCopyOnShip(t *testing.T) {
	net, r := populate(t, 5, "a", "ab", "b")
	for _, v := range []string{"v1", "v2", "v3", "v4"} { // five values: room for a sixth
		if err := net.InsertData("a", v, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		key   keys.Key
		write func(n *Node)
		want  []string
	}{
		{"a", func(n *Node) { n.addValue("v0") }, []string{"a", "v0", "v1", "v2", "v3", "v4"}},
		{"a", func(n *Node) { n.removeValue("v1") }, []string{"a", "v0", "v2", "v3", "v4"}},
		{"a", func(n *Node) { n.removeValue("v4") }, []string{"a", "v0", "v2", "v3"}},
		{"b", func(n *Node) { n.removeValue("b") }, nil},
	} {
		net.Replicate()
		n := net.nodes[tc.key]
		rep, _, _ := net.ReplicaOf(tc.key)
		shipped := rep.Data
		was := slices.Clone(shipped)
		tc.write(n)
		if !slices.Equal(n.Data, tc.want) {
			t.Fatalf("%q after the write: %q, want %q", tc.key, n.Data, tc.want)
		}
		if !slices.Equal(shipped, was) {
			t.Fatalf("%q: the write reached the replica: %q, shipped %q", tc.key, shipped, was)
		}
	}
}
