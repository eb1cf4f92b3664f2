package keys

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLenAndEmpty(t *testing.T) {
	if Epsilon.Len() != 0 || !Epsilon.IsEmpty() {
		t.Fatalf("epsilon should be empty with length 0")
	}
	if Key("101").Len() != 3 {
		t.Fatalf("Len(101) = %d, want 3", Key("101").Len())
	}
	if Key("0").IsEmpty() {
		t.Fatalf("\"0\" must not be empty")
	}
}

func TestConcat(t *testing.T) {
	u, v := Key("10"), Key("111")
	if got := u.Concat(v); got != Key("10111") {
		t.Fatalf("Concat = %q, want 10111", got)
	}
	if got := Epsilon.Concat(u); got != u {
		t.Fatalf("εu = %q, want %q", got, u)
	}
	if got := u.Concat(Epsilon); got != u {
		t.Fatalf("uε = %q, want %q", got, u)
	}
}

func TestCompareAndLess(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{"", "", 0},
		{"", "0", -1},
		{"0", "", 1},
		{"10", "101", -1},
		{"101", "10", 1},
		{"101", "101", 0},
		{"100", "101", -1},
		{"2", "10", 1}, // lexicographic, not numeric
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Less(c.a, c.b); got != (c.want < 0) {
			t.Errorf("Less(%q,%q) = %v, want %v", c.a, c.b, got, c.want < 0)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Min("10", "101") != Key("10") || Max("10", "101") != Key("101") {
		t.Fatalf("Min/Max wrong for 10 vs 101")
	}
	if Min("abc", "abc") != Key("abc") || Max("abc", "abc") != Key("abc") {
		t.Fatalf("Min/Max of equal keys must be the key")
	}
}

func TestIsPrefix(t *testing.T) {
	cases := []struct {
		p, k           Key
		prefix, proper bool
	}{
		{"", "", true, false},
		{"", "101", true, true},
		{"10", "101", true, true},
		{"101", "101", true, false},
		{"1011", "101", false, false},
		{"11", "101", false, false},
	}
	for _, c := range cases {
		if got := IsPrefix(c.p, c.k); got != c.prefix {
			t.Errorf("IsPrefix(%q,%q) = %v, want %v", c.p, c.k, got, c.prefix)
		}
		if got := IsProperPrefix(c.p, c.k); got != c.proper {
			t.Errorf("IsProperPrefix(%q,%q) = %v, want %v", c.p, c.k, got, c.proper)
		}
	}
}

func TestGCPPaperExamples(t *testing.T) {
	// GCP(101, 100) = 10 (Section 3).
	if got := GCP("101", "100"); got != Key("10") {
		t.Fatalf("GCP(101,100) = %q, want 10", got)
	}
	if got := GCP("10101", "10111"); got != Key("101") {
		t.Fatalf("GCP(10101,10111) = %q, want 101", got)
	}
	if got := GCP("abc", "xyz"); got != Epsilon {
		t.Fatalf("GCP(abc,xyz) = %q, want ε", got)
	}
	if got := GCP("abc", "abc"); got != Key("abc") {
		t.Fatalf("GCP(abc,abc) = %q, want abc", got)
	}
}

func TestGCPAll(t *testing.T) {
	if got := GCPAll(); got != Epsilon {
		t.Fatalf("GCPAll() = %q, want ε", got)
	}
	if got := GCPAll("10101"); got != Key("10101") {
		t.Fatalf("GCPAll(single) = %q", got)
	}
	if got := GCPAll("10101", "10111", "101111"); got != Key("101") {
		t.Fatalf("GCPAll = %q, want 101", got)
	}
	if got := GCPAll("0", "1", "0"); got != Epsilon {
		t.Fatalf("GCPAll disjoint = %q, want ε", got)
	}
}

func TestPGCPAll(t *testing.T) {
	g, ok := PGCPAll("10101", "10111")
	if !ok || g != Key("101") {
		t.Fatalf("PGCPAll = %q,%v want 101,true", g, ok)
	}
	// When one key equals the GCP, the proper GCP drops a digit.
	g, ok = PGCPAll("101", "10111")
	if !ok || g != Key("10") {
		t.Fatalf("PGCPAll(101,10111) = %q,%v want 10,true", g, ok)
	}
	g, ok = PGCPAll("", "10111")
	if ok || g != Epsilon {
		t.Fatalf("PGCPAll(ε,·) = %q,%v want ε,false", g, ok)
	}
	if _, ok := PGCPAll(); ok {
		t.Fatalf("PGCPAll() must report no prefix")
	}
}

func TestPrefixesPaperExample(t *testing.T) {
	// Prefixes(10101) = {ε, 1, 10, 101, 1010} (Section 3).
	got := Prefixes("10101")
	want := []Key{"", "1", "10", "101", "1010"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Prefixes(10101) = %v, want %v", got, want)
	}
	if Prefixes(Epsilon) != nil {
		t.Fatalf("Prefixes(ε) must be empty")
	}
}

func TestHasProperPrefixIn(t *testing.T) {
	set := []Key{"10", "111"}
	if !HasProperPrefixIn("101", set) {
		t.Fatalf("10 properly prefixes 101")
	}
	if HasProperPrefixIn("10", set) {
		t.Fatalf("10 is not a proper prefix of itself; 111 unrelated")
	}
	if HasProperPrefixIn("0", set) {
		t.Fatalf("nothing prefixes 0")
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b Key
		want    bool
	}{
		{"5", "1", "9", true},
		{"1", "1", "9", false},
		{"9", "1", "9", false},
		{"0", "1", "9", false},
		// wrapped interval (9,1): contains keys above 9 or below 1
		{"95", "9", "1", true},
		{"0", "9", "1", true},
		{"5", "9", "1", false},
		// degenerate a==b: everything but the point
		{"5", "3", "3", true},
		{"3", "3", "3", false},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%q,%q,%q) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestBetweenRightIncl(t *testing.T) {
	if !BetweenRightIncl("9", "1", "9") {
		t.Fatalf("(1,9] must contain 9")
	}
	if BetweenRightIncl("1", "1", "9") {
		t.Fatalf("(1,9] must not contain 1")
	}
	if !BetweenRightIncl("3", "3", "3") {
		t.Fatalf("(a,a] is the full circle and contains a at the right bound")
	}
	if !BetweenRightIncl("0", "9", "1") {
		t.Fatalf("wrapped (9,1] must contain 0")
	}
}

func TestSortKeys(t *testing.T) {
	ks := []Key{"101", "", "10", "0111", "10"}
	SortKeys(ks)
	want := []Key{"", "0111", "10", "10", "101"}
	if !reflect.DeepEqual(ks, want) {
		t.Fatalf("SortKeys = %v, want %v", ks, want)
	}
}

func TestNewAlphabet(t *testing.T) {
	a, err := NewAlphabet("01")
	if err != nil {
		t.Fatalf("NewAlphabet: %v", err)
	}
	if a.Size() != 2 {
		t.Fatalf("Size = %d, want 2", a.Size())
	}
	if _, err := NewAlphabet(""); err == nil {
		t.Fatalf("empty alphabet must error")
	}
	if _, err := NewAlphabet("011"); err == nil {
		t.Fatalf("duplicate digits must error")
	}
}

func TestMustAlphabetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustAlphabet on bad input must panic")
		}
	}()
	MustAlphabet("")
}

func TestAlphabetValidContains(t *testing.T) {
	if !Binary.Valid("010110") || Binary.Valid("0120") {
		t.Fatalf("Binary.Valid wrong")
	}
	if !Binary.Valid(Epsilon) {
		t.Fatalf("ε is valid in every alphabet")
	}
	if !Binary.Contains('0') || Binary.Contains('2') {
		t.Fatalf("Binary.Contains wrong")
	}
	if !LowerAlnum.Valid("s3l_mat_mult") {
		t.Fatalf("LowerAlnum should accept routine names")
	}
	if !PrintableASCII.Valid("PDGESV v2.1") {
		t.Fatalf("PrintableASCII should accept mixed-case keys")
	}
}

func TestAlphabetDigitsSortedCopy(t *testing.T) {
	a := MustAlphabet("ba")
	d := a.Digits()
	if d[0] != 'a' || d[1] != 'b' {
		t.Fatalf("digits must be sorted: %v", d)
	}
	d[0] = 'z'
	if a.Digits()[0] != 'a' {
		t.Fatalf("Digits must return a copy")
	}
}

func TestRandomKey(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		k := Binary.RandomKey(r, 2, 8)
		if k.Len() < 2 || k.Len() > 8 {
			t.Fatalf("length %d out of [2,8]", k.Len())
		}
		if !Binary.Valid(k) {
			t.Fatalf("invalid key %q", k)
		}
	}
	if k := Binary.RandomKey(r, 5, 5); k.Len() != 5 {
		t.Fatalf("fixed-length key has length %d", k.Len())
	}
	if k := Binary.RandomKey(r, -3, -1); !k.IsEmpty() {
		t.Fatalf("negative bounds must yield ε, got %q", k)
	}
	if k := Binary.RandomKey(r, 4, 2); k.Len() != 4 {
		t.Fatalf("maxLen<minLen must clamp to minLen, got %d", k.Len())
	}
}

func TestRandomKeyDeterministic(t *testing.T) {
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		if a, b := Binary.RandomKey(r1, 0, 10), Binary.RandomKey(r2, 0, 10); a != b {
			t.Fatalf("same seed must give same keys: %q vs %q", a, b)
		}
	}
}

// --- property-based tests -------------------------------------------------

// binKey adapts random strings to binary keys for testing/quick.
type binKey Key

func (binKey) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + r.Intn(2))
	}
	return reflect.ValueOf(binKey(b))
}

func TestPropGCPCommutative(t *testing.T) {
	f := func(a, b binKey) bool {
		return GCP(Key(a), Key(b)) == GCP(Key(b), Key(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGCPIsPrefixOfBoth(t *testing.T) {
	f := func(a, b binKey) bool {
		g := GCP(Key(a), Key(b))
		return IsPrefix(g, Key(a)) && IsPrefix(g, Key(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGCPMaximal(t *testing.T) {
	// No longer common prefix exists: the digits right after the GCP
	// differ (or one key ends).
	f := func(a, b binKey) bool {
		g := GCP(Key(a), Key(b))
		if len(g) == len(a) || len(g) == len(b) {
			return true
		}
		return a[len(g)] != b[len(g)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGCPIdempotent(t *testing.T) {
	f := func(a binKey) bool { return GCP(Key(a), Key(a)) == Key(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropGCPAssociative(t *testing.T) {
	f := func(a, b, c binKey) bool {
		return GCP(GCP(Key(a), Key(b)), Key(c)) == GCP(Key(a), GCP(Key(b), Key(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPrefixesAreProper(t *testing.T) {
	f := func(a binKey) bool {
		for _, p := range Prefixes(Key(a)) {
			if !IsProperPrefix(p, Key(a)) {
				return false
			}
		}
		return len(Prefixes(Key(a))) == len(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropConcatPrefix(t *testing.T) {
	// u is always a prefix of uv; proper iff v nonempty.
	f := func(u, v binKey) bool {
		uv := Key(u).Concat(Key(v))
		if !IsPrefix(Key(u), uv) {
			return false
		}
		return IsProperPrefix(Key(u), uv) == (len(v) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropBetweenCircularExhaustive(t *testing.T) {
	// On the circle, for distinct a,b every x != a,b is in exactly one
	// of (a,b) and (b,a).
	f := func(x, a, b binKey) bool {
		kx, ka, kb := Key(x), Key(a), Key(b)
		if ka == kb || kx == ka || kx == kb {
			return true
		}
		in1, in2 := Between(kx, ka, kb), Between(kx, kb, ka)
		return in1 != in2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropRandomKeyValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		k := LowerAlnum.RandomKey(r, 0, 12)
		if !LowerAlnum.Valid(k) {
			t.Fatalf("generated invalid key %q", k)
		}
	}
}

// validByMap is Valid as the rune map alone answers it, ranging over the
// string: the reference for the ASCII table.
func validByMap(a *Alphabet, k Key) bool {
	for _, r := range string(k) {
		if !a.member[r] {
			return false
		}
	}
	return true
}

// TestAlphabetValidMatchesMap holds Valid to validByMap for every byte
// value alone, inside and after valid keys, and for multi-byte and
// invalid UTF-8 sequences, over ASCII alphabets and one with non-ASCII
// digits and utf8.RuneError among them.
func TestAlphabetValidMatchesMap(t *testing.T) {
	greek := MustAlphabet("αβγ09�")
	inputs := []Key{"", "é", "αβ", "αβγ0", "\xce", "\xce\xb1\xce", "\xff\xfe", "\xed\xa0\x80", "\xf0\x9f\x98\x80", "0\x80", "aÿb"}
	for b := 0; b < 256; b++ {
		c := string([]byte{byte(b)})
		inputs = append(inputs, Key(c), Key("01"+c), Key(c+"ab"), Key("α"+c))
	}
	for _, a := range []*Alphabet{Binary, LowerAlnum, PrintableASCII, greek} {
		for _, k := range inputs {
			if got, want := a.Valid(k), validByMap(a, k); got != want {
				t.Errorf("alphabet %q: Valid(%q) = %v, the rune map says %v", string(a.digits), k, got, want)
			}
		}
	}
}

// BenchmarkAlphabetValid times Valid on a 12-character key.
func BenchmarkAlphabetValid(b *testing.B) {
	for b.Loop() {
		if !LowerAlnum.Valid("pdgesv_x86_4") {
			b.Fatal("invalid")
		}
	}
}
