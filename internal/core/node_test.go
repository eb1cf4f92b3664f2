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
// their scans over seeded random child sets: children sharing long
// prefixes with each other and with the probe, empty sets, probes
// equal to a child, and both descent rules.
func TestChildSearchMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, alpha := range []*keys.Alphabet{keys.Binary, keys.LowerAlnum} {
		for trial := 0; trial < 3000; trial++ {
			stem := alpha.RandomKey(r, 0, 8)
			prefix := func() keys.Key { return stem[:r.Intn(len(stem)+1)] }
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
			probes := []keys.Key{prefix() + alpha.RandomKey(r, 0, 5), stem + alpha.RandomKey(r, 0, 2), prefix()}
			if len(kids) > 0 {
				probes = append(probes, kids[r.Intn(len(kids))])
			}
			for _, k := range probes {
				gotEdge, gotOK := n.BestChildFor(k)
				got := gotEdge.Key
				want, wantOK := scanBestChildFor(n.Key, set, k)
				if gotOK != wantOK || len(keys.GCP(got, k)) != len(keys.GCP(want, k)) {
					t.Fatalf("BestChildFor(%q) at %q over %q = %q, %v; scan %q, %v",
						k, n.Key, kids, got, gotOK, want, wantOK)
				}
				ties := 0
				for c := range set {
					if len(keys.GCP(c, k)) == len(keys.GCP(want, k)) {
						ties++
					}
				}
				if wantOK && ties == 1 && got != want {
					t.Fatalf("BestChildFor(%q) over %q = %q, unique best %q", k, kids, got, want)
				}
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
	n := NodeInfo{Key: "a", Children: []keys.Key{"ad", "ab", "ac", "ae"}, Data: []string{"v2", "v1", "v3"}}.materialize()
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
	for name, got := range map[string][]keys.Key{"ChildrenSorted": kids, "infoOf.Children": info.Children} {
		if !slices.Equal(got, wantKids) {
			t.Errorf("%s followed the node: %q, want %q", name, got, wantKids)
		}
	}
	// The other direction: a materialized node must not share the
	// form's slices either (a replica set keeps its NodeInfo).
	form := NodeInfo{Key: "b", Data: []string{"x", "y"}}
	m := form.materialize()
	m.removeValue("x")
	if !slices.Equal(form.Data, []string{"x", "y"}) {
		t.Fatalf("materialize shares the form's values: %q", form.Data)
	}
}
