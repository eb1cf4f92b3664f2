package core

import (
	"math/rand"
	"slices"
	"testing"

	"dlpt/internal/keys"
	"dlpt/internal/trie"
	"dlpt/internal/workload"
)

// TestBuildCanonicalMatchesReferenceTrie differentially pins the
// sorted-batch canonical construction against the reference PGCP
// trie: same label set, same father/child pointers, same root.
func TestBuildCanonicalMatchesReferenceTrie(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := [][]keys.Key{
		nil,
		{keys.Key("a")},
		{keys.Key("a"), keys.Key("b")},
		{keys.Key("ab"), keys.Key("abcd"), keys.Key("abcx")},
		{keys.Key("ab"), keys.Key("abc"), keys.Key("abcd")},
		workload.GridCorpus(200),
	}
	for i := 0; i < 40; i++ {
		n := 1 + r.Intn(60)
		set := make(map[keys.Key]bool, n)
		for len(set) < n {
			set[keys.LowerAlnum.RandomKey(r, 1, 8)] = true
		}
		ks := make([]keys.Key, 0, n)
		for k := range set {
			ks = append(ks, k)
		}
		cases = append(cases, ks)
	}
	for ci, ks := range cases {
		keys.SortKeys(ks)
		want, root, ok := buildCanonical(ks)
		ref := trie.New()
		for _, k := range ks {
			ref.InsertKey(k)
		}
		if len(ks) == 0 {
			if ok {
				t.Fatalf("case %d: empty set produced a root", ci)
			}
			continue
		}
		if !ok || root != ref.Root().Label {
			t.Fatalf("case %d: root = %q ok=%v, want %q", ci, root, ok, ref.Root().Label)
		}
		refNodes := 0
		ref.Walk(func(tn *trie.Node) {
			refNodes++
			cn, ok := want[tn.Label]
			if !ok {
				t.Fatalf("case %d: canonical set missing %q", ci, tn.Label)
			}
			if cn.hasFather != (tn.Parent != nil) {
				t.Fatalf("case %d: node %q hasFather=%v", ci, tn.Label, cn.hasFather)
			}
			if tn.Parent != nil && cn.father != tn.Parent.Label {
				t.Fatalf("case %d: node %q father=%q want %q", ci, tn.Label, cn.father, tn.Parent.Label)
			}
			if len(cn.kids) != tn.NumChildren() {
				t.Fatalf("case %d: node %q kids=%v want %d children", ci, tn.Label, cn.kids, tn.NumChildren())
			}
			for _, c := range tn.Children() {
				found := false
				for _, k := range cn.kids {
					if k.Key == c.Label {
						found = true
					}
				}
				if !found {
					t.Fatalf("case %d: node %q missing child %q", ci, tn.Label, c.Label)
				}
			}
		})
		if refNodes != len(want) {
			t.Fatalf("case %d: %d canonical labels, reference has %d", ci, len(want), refNodes)
		}
	}
}

// rebuildLinks drops every node that is not a canonical label. The stale
// ones here sit at the end of the node list, where each drop refills the
// slot the sweep would visit next if it ran forwards.
func TestRebuildLinksDropsEveryStaleNode(t *testing.T) {
	net, _ := populate(t, 41, "abc", "abd", "b")
	root, _ := net.Root()
	before := net.NumNodes()
	for _, k := range []keys.Key{"x1", "x2", "x3"} {
		net.installNode(NodeInfo{Key: k, Father: root, HasFather: true}.materialize(), keys.Epsilon)
	}
	net.rebuildLinks()
	mustValidate(t, net)
	if net.NumNodes() != before {
		t.Fatalf("%d nodes after the rebuild, want %d", net.NumNodes(), before)
	}
}

// TestBuildCanonicalLabelsProperty holds the canonical construction to
// the reference trie over random and adversarial key sets: the label set
// equals trie.Tree.Labels(), every label's father is the reference
// trie's, and the roots agree. The keys come from a two-letter alphabet
// with the empty key allowed, so shared prefixes, keys that prefix
// other keys, single keys and sets with an empty common prefix are all
// common; the fixed cases name each shape once.
func TestBuildCanonicalLabelsProperty(t *testing.T) {
	cases := [][]keys.Key{
		{""},
		{"a"},
		{"", "a"},
		{"", "ab", "b"},
		{"a", "b"},
		{"ab", "ba"},
		{"a", "ab", "abc", "abcd"},
		{"abc", "abd", "abe"},
		{"abcdef", "abcdeg", "abcdxx", "abyy"},
		{"b", "ba", "bab", "bb", "c"},
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		set := make(map[keys.Key]bool)
		for n := 1 + r.Intn(24); len(set) < n; {
			b := make([]byte, r.Intn(7))
			for j := range b {
				b[j] = "ab"[r.Intn(2)]
			}
			set[keys.Key(b)] = true
		}
		ks := make([]keys.Key, 0, len(set))
		for k := range set {
			ks = append(ks, k)
		}
		cases = append(cases, ks)
	}
	for ci, ks := range cases {
		keys.SortKeys(ks)
		want, root, ok := buildCanonical(ks)
		ref := trie.New()
		for _, k := range ks {
			ref.InsertKey(k)
		}
		labels := make([]keys.Key, 0, len(want))
		for l := range want {
			labels = append(labels, l)
		}
		keys.SortKeys(labels)
		if refLabels := ref.Labels(); !slices.Equal(labels, refLabels) {
			t.Fatalf("case %d %q: labels %q, reference %q", ci, ks, labels, refLabels)
		}
		if !ok || root != ref.Root().Label {
			t.Fatalf("case %d %q: root %q (%v), reference %q", ci, ks, root, ok, ref.Root().Label)
		}
		ref.Walk(func(tn *trie.Node) {
			cn := want[tn.Label]
			switch {
			case cn.hasFather != (tn.Parent != nil):
				t.Fatalf("case %d %q: %q has a father: %v", ci, ks, tn.Label, cn.hasFather)
			case tn.Parent != nil && cn.father != tn.Parent.Label:
				t.Fatalf("case %d %q: father of %q is %q, reference %q", ci, ks, tn.Label, cn.father, tn.Parent.Label)
			}
		})
	}
}
