package catalog

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The pointer-trie LOUDS encoder the sorted-order build replaced, kept
// as the test-side reference: it inserts every string into a byte trie
// of linked nodes, numbers the nodes breadth-first with a queue and
// looks each string's terminal up in a map. FuzzLOUDSMatchesReference
// holds the production encoder to its bytes.

// writtenMasks are the section masks the LOUDS encoder writes.
var writtenMasks = []Sections{0, SecValues}

// bnode is one trie node during reference encoding.
type bnode struct {
	lab  byte
	kids []*bnode
	id   int
}

// buildTrie inserts the sorted distinct strings into a byte trie and
// returns the root plus each string's terminal node.
func buildTrie(strs []string) (*bnode, map[string]*bnode) {
	root := &bnode{}
	at := make(map[string]*bnode, len(strs))
	for _, s := range strs {
		n := root
		for i := 0; i < len(s); i++ {
			c := s[i]
			if k := len(n.kids); k > 0 && n.kids[k-1].lab == c {
				n = n.kids[k-1]
				continue
			}
			kid := &bnode{lab: c}
			n.kids = append(n.kids, kid)
			n = kid
		}
		at[s] = n
	}
	return root, at
}

// referenceLOUDS is the payload the pointer-trie encoder wrote.
func referenceLOUDS(dst []byte, entries []Entry, secs Sections) []byte {
	entries = canonicalize(entries)
	if len(entries) == 0 {
		return binary.AppendUvarint(dst, 0)
	}
	strs := make([]string, 0, len(entries))
	for _, e := range entries {
		strs = append(strs, e.Key)
	}
	root, at := buildTrie(strs)

	n := 0
	for queue := []*bnode{root}; len(queue) > 0; {
		nd := queue[0]
		queue = queue[1:]
		nd.id = n
		n++
		queue = append(queue, nd.kids...)
	}
	bitmap := make([]byte, (2*n-1+7)/8)
	labels := make([]byte, 0, n-1)
	bit := 0
	for queue := []*bnode{root}; len(queue) > 0; {
		nd := queue[0]
		queue = queue[1:]
		for _, kid := range nd.kids {
			setBit(bitmap, bit)
			bit++
			labels = append(labels, kid.lab)
		}
		bit++
		queue = append(queue, nd.kids...)
	}
	entBits := make([]byte, (n+7)/8)
	for _, e := range entries {
		setBit(entBits, at[e.Key].id)
	}

	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	dst = append(dst, bitmap...)
	dst = append(dst, labels...)
	dst = append(dst, entBits...)

	section := func(sec []byte) {
		dst = binary.AppendUvarint(dst, uint64(len(sec)))
		dst = append(dst, sec...)
	}
	if secs&SecValues != 0 {
		var all []string
		for _, e := range entries {
			all = append(all, e.Values...)
		}
		sort.Strings(all)
		all = slices.Compact(all)
		idx := make(map[string]int, len(all))
		for i, v := range all {
			idx[v] = i
		}
		sec := binary.AppendUvarint(nil, uint64(len(all)))
		for _, v := range all {
			sec = AppendString(sec, v)
		}
		for i := 0; i < len(entries); {
			j := i + 1
			for j < len(entries) && slices.Equal(entries[j].Values, entries[i].Values) {
				j++
			}
			sec = binary.AppendUvarint(sec, uint64(j-i-1))
			sec = binary.AppendUvarint(sec, uint64(len(entries[i].Values)))
			for _, v := range entries[i].Values {
				sec = binary.AppendUvarint(sec, uint64(idx[v]))
			}
			i = j
		}
		section(sec)
	}
	return dst
}

// FuzzLOUDSMatchesReference demands that any catalogue encode byte for
// byte as the pointer-trie encoder wrote it, under every section mask
// the encoder writes: the sorted-order build changes how the envelope
// is computed, never what it is.
func FuzzLOUDSMatchesReference(f *testing.F) {
	f.Add("a\x00ab\x00abc", "v1\x00v2")
	f.Add("", "")
	f.Add("dup\x00dup\x00z", "x")
	f.Add("k\xffe\x00y\x00", "\x01\x02")
	f.Add("dgemm\x00dge\x00dgemv\x00sgemm\x00s", "ep://1\x00ep://2")

	f.Fuzz(func(t *testing.T, keysBlob, valsBlob string) {
		entries := fuzzEntries(keysBlob, valsBlob)
		for _, secs := range writtenMasks {
			want := append([]byte{versionLOUDS, byte(secs)}, referenceLOUDS(nil, entries, secs)...)
			if got := Append(nil, LOUDS, entries, secs); string(got) != string(want) {
				t.Fatalf("sections %v: envelope\n got %x\nwant %x", secs, got, want)
			}
		}
	})
}

// TestLOUDSMatchesReferenceRandom runs the differential on seeded random
// catalogues over a three-letter alphabet, so prefixes nest deeply and
// keys repeat: unsorted input, duplicates and the empty key all occur.
func TestLOUDSMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	word := func() string {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		return string(b)
	}
	for round := 0; round < 1000; round++ {
		entries := make([]Entry, rng.Intn(12))
		for i := range entries {
			e := Entry{Key: word()}
			for j := rng.Intn(3); j > 0; j-- {
				e.Values = append(e.Values, word())
			}
			entries[i] = e
		}
		for _, secs := range writtenMasks {
			want := append([]byte{versionLOUDS, byte(secs)}, referenceLOUDS(nil, entries, secs)...)
			if got := Append(nil, LOUDS, entries, secs); string(got) != string(want) {
				t.Fatalf("round %d, sections %v, entries %+v: envelope\n got %x\nwant %x", round, secs, entries, got, want)
			}
		}
	}
}
