package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dlpt/internal/workload"
)

// corpus builds a service-name-like key set with heavy prefix
// sharing, the shape the succinct codec is designed for.
func corpus(n int) []string {
	bases := []string{
		"dgemm", "dgemv", "dgetrf", "dgetrs", "dpotrf", "dpotrs",
		"sgemm", "sgemv", "sgetrf", "zgemm", "zheev", "dsyev",
		"pdgemm", "pdgetrf", "pdpotrf", "s3l_mat_mult", "s3l_fft",
	}
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		b := bases[i%len(bases)]
		if v := i / len(bases); v > 0 {
			b = fmt.Sprintf("%s_v%d", b, v+1)
		}
		out = append(out, b)
	}
	return out
}

func entriesFor(ks []string) []Entry {
	entries := make([]Entry, len(ks))
	for i, k := range ks {
		entries[i] = Entry{Key: k, Values: []string{"ep://grid-" + fmt.Sprint(i%16)}}
	}
	return entries
}

func TestRoundTripBothCodecs(t *testing.T) {
	ks := corpus(500)
	for _, secs := range []Sections{0, SecValues} {
		want := expectEntries(entriesFor(ks), secs)
		for _, c := range []Codec{Legacy, LOUDS} {
			enc := Append(nil, c, entriesFor(ks), secs)
			got, gotSecs, err := Decode(enc)
			if err != nil {
				t.Fatalf("codec v%d: decode: %v", c.Version(), err)
			}
			if gotSecs != secs {
				t.Fatalf("codec v%d: sections = %v, want %v", c.Version(), gotSecs, secs)
			}
			if !entriesEqual(got, want) {
				t.Fatalf("codec v%d: round trip mismatch", c.Version())
			}
		}
	}
}

func TestUnsortedInputCanonicalizes(t *testing.T) {
	in := []Entry{{Key: "b"}, {Key: "a", Values: []string{"old"}}, {Key: "a", Values: []string{"new"}}}
	enc := Append(nil, LOUDS, in, SecValues)
	got, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{Key: "a", Values: []string{"new"}}, {Key: "b"}}
	if !entriesEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestEmptyCatalogue(t *testing.T) {
	for _, c := range []Codec{Legacy, LOUDS} {
		enc := Append(nil, c, nil, SecValues)
		got, _, err := Decode(enc)
		if err != nil {
			t.Fatalf("codec v%d: %v", c.Version(), err)
		}
		if len(got) != 0 {
			t.Fatalf("codec v%d: got %d entries", c.Version(), len(got))
		}
	}
}

// TestSuccinctSizeWin pins the reason this codec exists: on a
// prefix-sharing corpus with shared endpoint values, the succinct
// form must be at least 5x smaller than the legacy form, and a
// snapshot of the 10k-key grid catalogue behind one shared endpoint —
// the key structure alone, which is what the trie compresses — costs
// at most 3 bytes a key (the verbose encoding LOUDS replaced cost 14).
// Encoded sizes are deterministic, so the ceiling needs no allowance.
func TestSuccinctSizeWin(t *testing.T) {
	entries := entriesFor(corpus(10000))
	legacy := len(Append(nil, Legacy, entries, SecValues))
	louds := len(Append(nil, LOUDS, entries, SecValues))
	t.Logf("legacy=%d bytes (%.1f/key), louds=%d bytes (%.1f/key), ratio=%.1fx",
		legacy, float64(legacy)/10000, louds, float64(louds)/10000,
		float64(legacy)/float64(louds))
	if louds*5 > legacy {
		t.Fatalf("succinct codec too large: legacy=%d louds=%d (<5x)", legacy, louds)
	}

	grid := workload.GridCorpus(10000)
	shared := make([]Entry, len(grid))
	for i, k := range grid {
		shared[i] = Entry{Key: string(k), Values: []string{"ep"}}
	}
	perKey := float64(len(Append(nil, LOUDS, shared, SecValues))) / float64(len(grid))
	t.Logf("shared endpoint: %.2f bytes/key", perKey)
	if perKey > 3 {
		t.Fatalf("snapshot costs %.2f B/key on %d keys (ceiling 3)", perKey, len(grid))
	}
}

func TestDeterministicEncoding(t *testing.T) {
	entries := entriesFor(corpus(300))
	a := Append(nil, LOUDS, entries, SecValues)
	b := Append(nil, LOUDS, entries, SecValues)
	if string(a) != string(b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestHostileInputsDoNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seed := Append(nil, LOUDS, entriesFor(corpus(64)), SecValues)
	for i := 0; i < 5000; i++ {
		p := append([]byte(nil), seed...)
		// Flip a handful of bytes and truncate somewhere.
		for j := 0; j < 4; j++ {
			p[rng.Intn(len(p))] ^= byte(1 << rng.Intn(8))
		}
		p = p[:rng.Intn(len(p)+1)]
		entries, _, err := Decode(p) // must not panic or hang
		_ = entries
		_ = err
	}
}

func TestViewStreamsLazily(t *testing.T) {
	entries := entriesFor(corpus(100))
	enc := Append(nil, LOUDS, entries, SecValues)
	v, err := NewView(enc)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != len(canonicalize(entries)) {
		t.Fatalf("Len = %d", v.Len())
	}
	seen := 0
	err = v.Ascend(func(e Entry) bool {
		seen++
		return seen < 10 // early stop must be clean
	})
	if err != nil || seen != 10 {
		t.Fatalf("early stop: seen=%d err=%v", seen, err)
	}
}

func entriesEqual(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.Key == y.Key && slices.Equal(x.Values, y.Values)
	})
}

// TestAppendPrefixed checks the in-place length prefix on both sides of
// every uvarint width boundary, behind a non-empty dst.
func TestAppendPrefixed(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 70000} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		got := AppendPrefixed([]byte("hdr"), func(b []byte) []byte { return append(b, body...) })
		want := append(binary.AppendUvarint([]byte("hdr"), uint64(n)), body...)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: prefixed form differs", n)
		}
	}
}
