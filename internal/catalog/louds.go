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
// LCPs, as SuRF's builder does, with no trie in memory (trie), and
// walks its entries twice in all (appendLOUDS).
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

// nextZero returns the position of the first zero at or after i, or -1.
func (b *bitvec) nextZero(i int) int {
	for w := i >> 6; i >= 0 && w < len(b.words); w++ {
		if z := ^b.words[w] >> uint(i&63); z != 0 {
			if i += bits.TrailingZeros64(z); i < b.n {
				return i
			}
			return -1
		}
		i = (w + 1) << 6
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

// trie lays out the byte trie over sorted, distinct strings in two
// passes over adjacent LCPs: string s opens the nodes at depths
// |GCP(prev, s)|+1 … |s|. Pass 1 (count) counts them per depth, and the
// prefix sums give each level's first id: within a level of a trie with
// label-sorted children, BFS order is the lexicographic order of the
// prefixes. Pass 2 (place) hands ids out from per-level cursors and
// writes each label at its id. A new node's parent is the node opened
// last one level up, so its one sits in the parent's run at bit
// (id-1) + parent: after id-1 ones and the zeros closing nodes
// 0 … parent-1. Every string's terminal carries an entry.
type trie struct {
	next []int // per depth: the node count (the root's 1), then the next id
	// where the bitmap, labels and entry bits start in a buffer that may
	// grow while place fills them in
	bitmap, labels, ent int
}

func (t *trie) count(prev, s string) {
	for len(t.next) <= len(s) {
		t.next = append(t.next, 0)
	}
	for d := len(keys.GCP(keys.Key(prev), keys.Key(s))) + 1; d <= len(s); d++ {
		t.next[d]++
	}
}

// layout appends the node count, m and the zeroed bitmap, labels and
// entry bits to dst, which place fills in.
func (t *trie) layout(dst []byte, m int) []byte {
	n := 0
	for d, c := range t.next {
		t.next[d], n = n, n+c
	}
	t.next[0] = 1 // past the root
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(n)), uint64(m))
	t.bitmap = len(dst)
	t.labels = t.bitmap + (2*n+6)/8
	t.ent = t.labels + n - 1
	return append(dst, make([]byte, t.ent+(n+7)/8-t.bitmap)...)
}

func (t *trie) place(buf []byte, prev, s string) {
	for d := len(keys.GCP(keys.Key(prev), keys.Key(s))) + 1; d <= len(s); d++ {
		buf[t.labels+t.next[d]-1] = s[d-1]
		setBit(buf[t.bitmap:], t.next[d]+t.next[d-1]-2)
		t.next[d]++
	}
	setBit(buf[t.ent:], t.next[len(s)]-1)
}

// AppendPayload encodes entries in key order, later duplicates winning,
// building the trie from the sorted key list.
func (loudsCodec) AppendPayload(dst []byte, entries []Entry, secs Sections) []byte {
	return appendLOUDS(dst, slices.Values(entries), secs)
}

// appendLOUDS is AppendPayload over a sequence it walks twice: sorted,
// distinct keys are encoded straight from it, anything else from its
// canonical copy. The first walk checks the order, counts the trie's
// nodes per depth and collects the values; the second places the trie
// and writes the value groups after the value table. Nothing keeps an
// entry's Values, so the sequence may reuse them.
func appendLOUDS(dst []byte, entries iter.Seq[Entry], secs Sections) []byte {
	t, values := trie{next: []int{1}}, secs&SecValues != 0
	var all []string
	m, prev := 0, ""
	for e := range entries {
		if m > 0 && e.Key <= prev {
			var owned []Entry
			for e := range entries {
				owned = append(owned, Entry{Key: e.Key, Values: slices.Clone(e.Values)})
			}
			return appendLOUDS(dst, slices.Values(canonicalize(owned)), secs)
		}
		t.count(prev, e.Key)
		if values && len(all)+len(e.Values) > cap(all) {
			// Deduplicate before growing, then leave as much room again:
			// a catalogue whose services share a few endpoints keeps a
			// short table.
			slices.Sort(all)
			all = slices.Compact(all)
			all = slices.Grow(all, len(all)+len(e.Values)+64)
		}
		if values {
			all = append(all, e.Values...)
		}
		m, prev = m+1, e.Key
	}
	if m == 0 {
		return binary.AppendUvarint(dst, 0)
	}
	dst = t.layout(dst, m)
	slices.Sort(all)
	all = slices.Compact(all)
	fill := func(buf []byte) []byte {
		if values {
			buf = binary.AppendUvarint(buf, uint64(len(all)))
			for _, v := range all {
				buf = AppendString(buf, v)
			}
		}
		var run []string // the open group's values, a copy
		repeat, prev := -1, ""
		for e := range entries {
			t.place(buf, prev, e.Key)
			if prev = e.Key; !values || repeat >= 0 && slices.Equal(e.Values, run) {
				repeat++
				continue
			}
			buf = appendRun(buf, all, run, repeat)
			run, repeat = append(run[:0], e.Values...), 0
		}
		if !values {
			return buf
		}
		return appendRun(buf, all, run, repeat)
	}
	if !values {
		return fill(dst)
	}
	return AppendPrefixed(dst, fill)
}

// appendRun writes one group of value references into the sorted
// distinct-value table: `repeat | count | refs...`, covering repeat+1
// consecutive entries that share the list. Catalogues where many
// services declare the same endpoint — the common shape — collapse to a
// handful of groups. A negative repeat is no group.
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
