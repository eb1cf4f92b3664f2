// Package keys implements the identifier algebra of the DLPT system:
// identifiers are finite strings over a finite digit alphabet A,
// compared lexicographically, with the prefix operations (GCP, proper
// prefixes) of Caron, Desprez and Tedeschi (RR-6557, Section 2) and
// the circular-interval predicates needed by the peer ring.
package keys

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// Key is an identifier: a finite sequence of digits over some
// alphabet. The empty key Epsilon is the identity of concatenation
// and the label of the tree root. Keys compare lexicographically by
// byte, which is the total order used both by the prefix tree and by
// the peer ring.
type Key string

// Epsilon is the empty identifier ε.
const Epsilon Key = ""

// Len returns the number of digits of k (|ε| = 0).
func (k Key) Len() int { return len(k) }

// IsEmpty reports whether k is the empty identifier ε.
func (k Key) IsEmpty() bool { return len(k) == 0 }

// Concat returns the concatenation kv.
func (k Key) Concat(v Key) Key { return k + v }

// Compare returns -1, 0 or +1 by lexicographic byte order.
func Compare(a, b Key) int { return strings.Compare(string(a), string(b)) }

// Less reports a < b in lexicographic order.
func Less(a, b Key) bool { return a < b }

// Min returns the smaller of a and b.
func Min(a, b Key) Key {
	if b < a {
		return b
	}
	return a
}

// Max returns the larger of a and b.
func Max(a, b Key) Key {
	if b > a {
		return b
	}
	return a
}

// IsPrefix reports whether p is a prefix of k (p == k counts).
func IsPrefix(p, k Key) bool {
	return len(p) <= len(k) && k[:len(p)] == p
}

// IsProperPrefix reports whether p is a proper prefix of k:
// a prefix with p != k.
func IsProperPrefix(p, k Key) bool {
	return len(p) < len(k) && k[:len(p)] == p
}

// GCP returns the Greatest Common Prefix of a and b: the longest
// identifier prefixing both.
func GCP(a, b Key) Key {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// GCPAll returns the greatest common prefix of all given keys.
// GCPAll() of no keys is ε.
func GCPAll(ks ...Key) Key {
	if len(ks) == 0 {
		return Epsilon
	}
	g := ks[0]
	for _, k := range ks[1:] {
		g = GCP(g, k)
		if g.IsEmpty() {
			return g
		}
	}
	return g
}

// PGCPAll returns the Proper Greatest Common Prefix of the given
// keys: the longest prefix u shared by all of them with u != k for
// every k. The second return value is false when no such prefix
// exists (which happens only when some key equals the GCP itself and
// the GCP cannot be shortened — by convention we then return the GCP
// shortened by one digit, which is still a common proper prefix).
func PGCPAll(ks ...Key) (Key, bool) {
	if len(ks) == 0 {
		return Epsilon, false
	}
	g := GCPAll(ks...)
	for _, k := range ks {
		if k == g {
			// g is not proper for k; the longest proper common
			// prefix is g minus its last digit (if any).
			if g.IsEmpty() {
				return Epsilon, false
			}
			return g[:len(g)-1], true
		}
	}
	return g, true
}

// Prefixes returns the set of identifiers properly prefixing k, from
// ε up to k minus one digit, in increasing length. Prefixes(ε) is
// empty.
func Prefixes(k Key) []Key {
	if k.IsEmpty() {
		return nil
	}
	ps := make([]Key, 0, len(k))
	for i := 0; i < len(k); i++ {
		ps = append(ps, k[:i])
	}
	return ps
}

// HasProperPrefixIn reports whether any element of set is a proper
// prefix of k.
func HasProperPrefixIn(k Key, set []Key) bool {
	for _, p := range set {
		if IsProperPrefix(p, k) {
			return true
		}
	}
	return false
}

// Between reports whether x lies in the open circular interval
// (a, b) of the identifier space. When a == b the interval covers the
// whole space except a. The identifier space is circular: when
// a > b the interval wraps through the minimum.
func Between(x, a, b Key) bool {
	switch {
	case a < b:
		return a < x && x < b
	case a > b:
		return x > a || x < b
	default: // a == b: everything but the point itself
		return x != a
	}
}

// BetweenRightIncl reports whether x lies in the circular interval
// (a, b]. This is the Chord successor test: x is managed by b when
// x ∈ (pred(b), b].
func BetweenRightIncl(x, a, b Key) bool {
	if x == b {
		return true
	}
	return Between(x, a, b)
}

// SortKeys sorts ks in increasing lexicographic order in place.
func SortKeys(ks []Key) {
	slices.Sort(ks)
}

// Bits returns the first n bits of k's byte representation as a
// "0"/"1" string, zero-padded beyond the key's end. The encoding is
// order-preserving (bitwise lexicographic order equals byte order for
// equal-length outputs), which is what the binary-trie overlays (PHT,
// P-Grid) route on.
func Bits(k Key, n int) string {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		byteIdx, bitIdx := i/8, uint(7-i%8)
		var b byte
		if byteIdx < len(k) {
			b = k[byteIdx]
		}
		if b&(1<<bitIdx) != 0 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// Alphabet is a finite ordered set of digits. Identifiers of a DLPT
// deployment are drawn from one alphabet; the alphabet also provides
// seeded random-identifier generation for peers. Membership of an ASCII
// digit is one bit of a 128-bit table; other runes are looked up in a
// map.
type Alphabet struct {
	digits []rune
	ascii  [2]uint64 // bit r of the table is set when ASCII rune r is a digit
	member map[rune]bool
}

// NewAlphabet builds an alphabet from the given digit string. Digits
// must be distinct and non-empty.
func NewAlphabet(digits string) (*Alphabet, error) {
	if digits == "" {
		return nil, fmt.Errorf("keys: empty alphabet")
	}
	a := &Alphabet{member: make(map[rune]bool)}
	for _, r := range digits {
		if a.member[r] {
			return nil, fmt.Errorf("keys: duplicate digit %q in alphabet", r)
		}
		a.member[r] = true
		a.digits = append(a.digits, r)
		if r < utf8.RuneSelf {
			a.ascii[r>>6] |= 1 << (r & 63)
		}
	}
	sort.Slice(a.digits, func(i, j int) bool { return a.digits[i] < a.digits[j] })
	return a, nil
}

// MustAlphabet is NewAlphabet that panics on error; for package-level
// well-known alphabets.
func MustAlphabet(digits string) *Alphabet {
	a, err := NewAlphabet(digits)
	if err != nil {
		panic(err)
	}
	return a
}

// Well-known alphabets.
var (
	// Binary is the two-digit alphabet {0,1} used by the paper's
	// binary-identifier examples.
	Binary = MustAlphabet("01")
	// LowerAlnum covers the service-name corpora (BLAS, S3L,
	// ScaLAPACK routine names): digits, letters and underscore.
	LowerAlnum = MustAlphabet("0123456789_abcdefghijklmnopqrstuvwxyz")
	// PrintableASCII is the inclusive service-key alphabet used by the
	// public API when none is specified.
	PrintableASCII = MustAlphabet(
		" !\"#$%&'()*+,-./0123456789:;<=>?@" +
			"ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`" +
			"abcdefghijklmnopqrstuvwxyz{|}~")
)

// Size returns the number of digits |A|.
func (a *Alphabet) Size() int { return len(a.digits) }

// Digits returns a copy of the ordered digit set.
func (a *Alphabet) Digits() []rune {
	out := make([]rune, len(a.digits))
	copy(out, a.digits)
	return out
}

// Contains reports whether r is a digit of the alphabet.
func (a *Alphabet) Contains(r rune) bool { return a.member[r] }

// Valid reports whether every digit of k belongs to the alphabet. A
// byte that does not start a valid UTF-8 sequence reads as
// utf8.RuneError, as ranging over the string decodes it.
func (a *Alphabet) Valid(k Key) bool {
	for i := 0; i < len(k); {
		if c := k[i]; c < utf8.RuneSelf {
			if a.ascii[c>>6]&(1<<(c&63)) == 0 {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(string(k[i:]))
		if !a.member[r] {
			return false
		}
		i += size
	}
	return true
}

// RandomKey returns a uniformly random identifier whose length is
// uniform in [minLen, maxLen] and whose digits are uniform over the
// alphabet, using the caller's generator.
func (a *Alphabet) RandomKey(r *rand.Rand, minLen, maxLen int) Key {
	if minLen < 0 {
		minLen = 0
	}
	if maxLen < minLen {
		maxLen = minLen
	}
	n := minLen
	if maxLen > minLen {
		n += r.Intn(maxLen - minLen + 1)
	}
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteRune(a.digits[r.Intn(len(a.digits))])
	}
	return Key(b.String())
}
