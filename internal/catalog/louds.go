package catalog

import (
	"encoding/binary"
	"iter"
	"math/bits"
	"slices"

	"dlpt/internal/keys"
)

// loudsCodec is the version-1 succinct codec, after the LOUDS
// (Level-Order Unary Degree Sequence) trie encodings of Jacobson and
// the SuRF fast-succinct-trie line: the sorted key set becomes a
// byte trie marshalled breadth-first as
//
//	bitmap  — for each trie node in BFS order, degree ones then a
//	          zero (2n-1 bits for n nodes; the i-th one, counting
//	          from zero, IS node i+1, so parent/child navigation is
//	          rank/select arithmetic over the bitmap)
//	labels  — one byte per non-root node, BFS order
//	entries — one bit per node marking the nodes that carry an entry
//
// followed, when SecValues is set, by the length-prefixed values
// section: a sorted distinct-value table plus run-length-grouped
// per-entry varint references into it (a run of entries sharing one
// value list costs a few bytes total instead of a full copy — or even
// a count — per entry). The references are in lexicographic key order —
// the depth-first order of the trie — so decoding streams them in step
// with the walk. Keys sharing prefixes share trie paths, which on
// service-name corpora shrinks the key bytes by roughly an order of
// magnitude; the rank directory is rebuilt at decode time from the
// bitmap itself, so the wire form carries no redundancy. The encoder
// writes the trie from the sorted keys in two passes over adjacent
// LCPs, as SuRF's builder does, with no trie in memory (appendTrie).
type loudsCodec struct{}

func (loudsCodec) Version() byte { return versionLOUDS }

// maxCatalogNodes bounds the node count a decoder will accept
// relative to the payload it came from: every non-root node costs at
// least one label byte, so anything larger is corrupt and must not
// drive allocation.
func maxCatalogNodes(p []byte) uint64 { return uint64(len(p)) + 1 }

// --- bit vector with rank/select ---------------------------------------------

// bitvec is a plain bit vector with a word-granular rank directory:
// rank is two array reads and a popcount, select is a binary search
// over words then an in-word scan. Bits are addressed LSB-first
// within each 64-bit word, matching the serialized byte order.
type bitvec struct {
	words []uint64
	n     int      // number of valid bits
	ranks []uint32 // ranks[i] = ones in words[:i]
}

func newBitvec(words []uint64, n int) *bitvec {
	b := &bitvec{words: words, n: n, ranks: make([]uint32, len(words)+1)}
	for i, w := range words {
		b.ranks[i+1] = b.ranks[i] + uint32(bits.OnesCount64(w))
	}
	return b
}

func (b *bitvec) ones() int { return int(b.ranks[len(b.words)]) }

// rank1 counts ones in [0, i).
func (b *bitvec) rank1(i int) int {
	w := i >> 6
	r := int(b.ranks[w])
	if off := uint(i & 63); off != 0 {
		r += bits.OnesCount64(b.words[w] & (1<<off - 1))
	}
	return r
}

// select0 returns the position of the i-th zero (0-based), or -1.
func (b *bitvec) select0(i int) int {
	if i < 0 || i >= b.n-b.ones() {
		return -1
	}
	lo, hi := 0, len(b.words)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid<<6-int(b.ranks[mid]) <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	pos := lo<<6 + selectInWord(^b.words[lo], i-(lo<<6-int(b.ranks[lo])))
	if pos >= b.n {
		return -1
	}
	return pos
}

// selectInWord returns the position of the r-th set bit of w.
func selectInWord(w uint64, r int) int {
	for i := 0; i < 64; i++ {
		if w&(1<<uint(i)) != 0 {
			if r == 0 {
				return i
			}
			r--
		}
	}
	return -1
}

// wordsFromBytes loads a little-endian byte serialization into words,
// masking any tail bits beyond n so popcount validation is exact.
func wordsFromBytes(p []byte, n int) []uint64 {
	words := make([]uint64, (n+63)/64)
	for i, c := range p {
		words[i>>3] |= uint64(c) << uint((i&7)*8)
	}
	if off := uint(n & 63); off != 0 && len(words) > 0 {
		words[len(words)-1] &= 1<<off - 1
	}
	return words
}

// --- encoding ----------------------------------------------------------------

func setBit(p []byte, i int) { p[i>>3] |= 1 << uint(i&7) }

// appendTrie appends the node count, m, the bitmap, the labels and the
// entry bits of the byte trie over strs, which yields sorted, distinct
// strings, in two passes over adjacent LCPs: string s opens the nodes at
// depths |GCP(prev, s)|+1 … |s|. Pass 1 counts them per depth, and the
// prefix sums give each level's first id: within a level of a trie with
// label-sorted children, BFS order is the lexicographic order of the
// prefixes. Pass 2 hands ids out from per-level cursors and writes each
// label at its id. A new node's parent is the node opened last one
// level up, so its one sits in the parent's run at bit (id-1) + parent:
// after id-1 ones and the zeros closing nodes 0 … parent-1. Every
// string's terminal carries an entry.
func appendTrie(dst []byte, strs iter.Seq[string], m int) []byte {
	next := []int{1} // per depth: the node count, then the next id
	prev := ""
	for s := range strs {
		for len(next) <= len(s) {
			next = append(next, 0)
		}
		for d := len(keys.GCP(keys.Key(prev), keys.Key(s))) + 1; d <= len(s); d++ {
			next[d]++
		}
		prev = s
	}
	n := 0
	for d, c := range next {
		next[d], n = n, n+c
	}
	next[0] = 1 // past the root
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(n)), uint64(m))
	at, nb := len(dst), (2*n+6)/8
	dst = append(dst, make([]byte, nb+n-1+(n+7)/8)...)
	bitmap, labels, ent := dst[at:at+nb], dst[at+nb:], dst[at+nb+n-1:]
	prev = ""
	for s := range strs {
		for d := len(keys.GCP(keys.Key(prev), keys.Key(s))) + 1; d <= len(s); d++ {
			labels[next[d]-1] = s[d-1]
			setBit(bitmap, next[d]+next[d-1]-2)
			next[d]++
		}
		setBit(ent, next[len(s)]-1)
		prev = s
	}
	return dst
}

// AppendPayload encodes entries in key order, later duplicates winning,
// building the trie from the sorted key list (appendTrie).
func (loudsCodec) AppendPayload(dst []byte, entries []Entry, secs Sections) []byte {
	return appendLOUDS(dst, slices.Values(entries), secs)
}

// appendLOUDS is AppendPayload over a sequence it walks several times:
// sorted, distinct keys are encoded straight from it, anything else
// from its canonical copy.
func appendLOUDS(dst []byte, entries iter.Seq[Entry], secs Sections) []byte {
	m, nv, prev := 0, 0, ""
	for e := range entries {
		if m > 0 && e.Key <= prev {
			return appendLOUDS(dst, slices.Values(canonicalize(slices.Collect(entries))), secs)
		}
		m, nv, prev = m+1, nv+len(e.Values), e.Key
	}
	if m == 0 {
		return binary.AppendUvarint(dst, 0)
	}
	dst = appendTrie(dst, func(yield func(string) bool) {
		for e := range entries {
			if !yield(e.Key) {
				return
			}
		}
	}, m)
	if secs&SecValues != 0 {
		dst = AppendPrefixed(dst, func(sec []byte) []byte { return appendValues(sec, entries, nv) })
	}
	return dst
}

// appendValues writes the distinct-value table (sorted) and the
// per-entry references into it, run-length grouped: each group is
// `repeat | count | refs...` and covers repeat+1 consecutive entries
// sharing the same value list. Catalogues where many services declare
// the same endpoint — the common shape — collapse to a handful of
// groups instead of two bytes per entry. nv is the number of values.
func appendValues(sec []byte, entries iter.Seq[Entry], nv int) []byte {
	all := make([]string, 0, nv)
	for e := range entries {
		all = append(all, e.Values...)
	}
	slices.Sort(all)
	all = slices.Compact(all)
	sec = binary.AppendUvarint(sec, uint64(len(all)))
	for _, v := range all {
		sec = appendString(sec, v)
	}
	var run []string
	repeat := -1
	for e := range entries {
		if repeat >= 0 && slices.Equal(e.Values, run) {
			repeat++
			continue
		}
		sec = appendRun(sec, all, run, repeat)
		run, repeat = e.Values, 0
	}
	return appendRun(sec, all, run, repeat)
}

// appendRun writes one group of appendValues; a negative repeat is no
// group.
func appendRun(sec []byte, all, run []string, repeat int) []byte {
	if repeat < 0 {
		return sec
	}
	sec = binary.AppendUvarint(binary.AppendUvarint(sec, uint64(repeat)), uint64(len(run)))
	for _, v := range run {
		i, _ := slices.BinarySearch(all, v)
		sec = binary.AppendUvarint(sec, uint64(i))
	}
	return sec
}

func (c loudsCodec) DecodePayload(p []byte, secs Sections) ([]Entry, error) {
	v, err := viewFromPayload(p, secs)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, v.m)
	err = v.Ascend(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out, err
}
