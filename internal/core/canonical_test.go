package core

import (
	"math/rand"
	"slices"
	"testing"

	"dlpt/internal/keys"
	"dlpt/internal/trie"
	"dlpt/internal/workload"
)

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
// equals trie.Tree.Labels(), every label's father and children are the
// reference trie's, and the roots agree; the empty set has no root. The
// keys come from a two-letter alphabet with the empty key allowed, so
// shared prefixes, keys that prefix other keys, single keys and sets
// with an empty common prefix are all common; the fixed cases name each
// shape once, and the grid corpus and random alphanumeric sets add
// realistic keys.
func TestBuildCanonicalLabelsProperty(t *testing.T) {
	cases := [][]keys.Key{
		nil,
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
		{"ab", "abc", "abcd"},
		{"ab", "abcd", "abcx"},
		workload.GridCorpus(200),
	}
	alnum := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		set := make(map[keys.Key]bool)
		for n := 1 + alnum.Intn(60); len(set) < n; {
			set[keys.LowerAlnum.RandomKey(alnum, 1, 8)] = true
		}
		ks := make([]keys.Key, 0, len(set))
		for k := range set {
			ks = append(ks, k)
		}
		cases = append(cases, ks)
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
		if len(ks) == 0 {
			if ok || len(want) != 0 {
				t.Fatalf("case %d: the empty set has root %q and %d labels", ci, root, len(want))
			}
			continue
		}
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
			case !slices.EqualFunc(cn.kids, tn.Children(), func(c Child, rc *trie.Node) bool { return c.Key == rc.Label }):
				t.Fatalf("case %d %q: children of %q are %v, reference has %d", ci, ks, tn.Label, cn.kids, tn.NumChildren())
			}
		})
	}
}
