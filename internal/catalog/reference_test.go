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
// holds the production encoder to its bytes, and it alone still writes
// the structure section earlier versions wrote (appendAny), for the
// decoder's tests.

// writtenMasks are the section masks the LOUDS encoder writes.
var writtenMasks = []Sections{0, SecValues, SecLoads, SecValues | SecLoads}

// appendAny is Append for the tests: a LOUDS envelope with the
// structure section, which no encoder writes any more, comes from the
// reference encoder, byte for byte what earlier versions wrote.
func appendAny(dst []byte, c Codec, entries []Entry, secs Sections) []byte {
	if c == LOUDS && secs&SecStruct != 0 {
		return referenceLOUDS(append(dst, versionLOUDS, byte(secs)), entries, secs)
	}
	return Append(dst, c, entries, secs)
}

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
		if secs&SecStruct != 0 {
			if e.HasFather {
				strs = append(strs, e.Father)
			}
			strs = append(strs, e.Children...)
		}
	}
	sort.Strings(strs)
	strs = slices.Compact(strs)
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
			sec = appendString(sec, v)
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
	if secs&SecStruct != 0 {
		var sec []byte
		for _, e := range entries {
			if e.HasFather {
				sec = binary.AppendUvarint(sec, uint64(at[e.Father].id)+1)
			} else {
				sec = binary.AppendUvarint(sec, 0)
			}
			sec = binary.AppendUvarint(sec, uint64(len(e.Children)))
			for _, c := range e.Children {
				sec = binary.AppendUvarint(sec, uint64(at[c].id))
			}
		}
		section(sec)
	}
	if secs&SecLoads != 0 {
		var sec []byte
		for _, e := range entries {
			sec = binary.AppendUvarint(sec, uint64(e.LoadPrev))
			sec = binary.AppendUvarint(sec, uint64(e.LoadCur))
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
	f.Add("a\x00ab\x00abc", "v1\x00v2", "a", true, 3, 9)
	f.Add("", "", "", false, 0, 0)
	f.Add("dup\x00dup\x00z", "x", "dup", true, 1, 2)
	f.Add("k\xffe\x00y\x00", "\x01\x02", "\xff", true, 1<<20, 7)
	f.Add("dgemm\x00dge\x00dgemv\x00sgemm\x00s", "ep://1\x00ep://2", "dg", true, 200, 1)

	f.Fuzz(func(t *testing.T, keysBlob, valsBlob, father string, hasFather bool, lp, lc int) {
		entries := fuzzEntries(keysBlob, valsBlob, father, hasFather, lp, lc)
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
// keys repeat: unsorted input, duplicates, the empty key and structure
// links that are no entry's key all occur.
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
			e := Entry{Key: word(), LoadPrev: rng.Intn(300), LoadCur: rng.Intn(3)}
			for j := rng.Intn(3); j > 0; j-- {
				e.Values = append(e.Values, word())
				e.Children = append(e.Children, word())
			}
			if e.HasFather = rng.Intn(2) == 0; e.HasFather {
				e.Father = word()
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
