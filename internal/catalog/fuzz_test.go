package catalog

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzEntries builds a catalogue from fuzzed blobs: keys and values
// come NUL-separated, structure links point back into the key set so
// the LOUDS trie must spell them, and the father of a fatherless
// entry is empty (the canonical form both codecs agree on).
func fuzzEntries(keysBlob, valsBlob, father string, hasFather bool, lp, lc int) []Entry {
	ks := splitBlob(keysBlob)
	vals := splitBlob(valsBlob)
	if lp < 0 {
		lp = -lp
	}
	if lc < 0 {
		lc = -lc
	}
	entries := make([]Entry, 0, len(ks))
	for i, k := range ks {
		e := Entry{Key: k, LoadPrev: lp + i, LoadCur: lc}
		if len(vals) > 0 {
			e.Values = append(e.Values, vals[i%len(vals)])
			if i%3 == 0 {
				e.Values = append(e.Values, vals[0])
			}
		}
		if i%2 == 0 && hasFather {
			e.HasFather = true
			e.Father = father
		}
		if i%2 == 1 {
			e.Children = []string{ks[(i+1)%len(ks)], father}
		}
		entries = append(entries, e)
	}
	return entries
}

func splitBlob(blob string) []string {
	var out []string
	for _, s := range bytes.Split([]byte(blob), []byte{0}) {
		out = append(out, string(s))
	}
	return out
}

// expectEntries is the canonical decode image of entries under secs:
// sorted with later duplicates winning, absent sections zeroed, empty
// slices nil.
func expectEntries(entries []Entry, secs Sections) []Entry {
	want := append([]Entry(nil), canonicalize(entries)...)
	for i := range want {
		e := &want[i]
		if secs&SecValues == 0 || len(e.Values) == 0 {
			e.Values = nil
		}
		if secs&SecStruct == 0 {
			e.Father, e.HasFather, e.Children = "", false, nil
		} else {
			if !e.HasFather {
				e.Father = ""
			}
			if len(e.Children) == 0 {
				e.Children = nil
			}
		}
		if secs&SecLoads == 0 {
			e.LoadPrev, e.LoadCur = 0, 0
		}
	}
	if len(want) == 0 {
		return nil
	}
	return want
}

// FuzzCatalogRoundTrip encodes fuzz-built catalogues through both
// codecs and demands the decode equal the canonical image — and that
// the two codecs, fed the same entries, decode to identical values.
// This is the byte-determinism contract snapshots and REPLICA frames
// rest on.
func FuzzCatalogRoundTrip(f *testing.F) {
	f.Add("a\x00ab\x00abc", "v1\x00v2", "a", true, 3, 9, byte(SecAll))
	f.Add("", "", "", false, 0, 0, byte(0))
	f.Add("dup\x00dup\x00z", "x", "dup", true, 1, 2, byte(SecValues|SecLoads))
	f.Add("k\xffe\x00y\x00", "\x01\x02", "\xff", true, 1<<20, 7, byte(SecStruct))

	f.Fuzz(func(t *testing.T, keysBlob, valsBlob, father string, hasFather bool, lp, lc int, secsByte byte) {
		secs := Sections(secsByte) & SecAll
		entries := fuzzEntries(keysBlob, valsBlob, father, hasFather, lp, lc)
		want := expectEntries(entries, secs)

		decoded := make([][]Entry, 0, 2)
		for _, c := range []Codec{Legacy, LOUDS} {
			enc := appendAny(nil, c, entries, secs)
			if enc[0] != c.Version() || Sections(enc[1]) != secs {
				t.Fatalf("codec %d envelope header = %x/%x", c.Version(), enc[0], enc[1])
			}
			got, gotSecs, err := Decode(enc)
			if err != nil {
				t.Fatalf("codec %d decode: %v", c.Version(), err)
			}
			if gotSecs != secs {
				t.Fatalf("codec %d sections = %v, want %v", c.Version(), gotSecs, secs)
			}
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("codec %d round-trip:\n got %+v\nwant %+v", c.Version(), got, want)
			}
			decoded = append(decoded, got)
		}
		if !reflect.DeepEqual(decoded[0], decoded[1]) {
			t.Fatalf("codecs disagree:\nlegacy %+v\nlouds  %+v", decoded[0], decoded[1])
		}
	})
}

// FuzzCatalogDecode drives arbitrary bytes through the envelope
// decoder. The decoder owns the trust boundary with remote peers and
// with snapshot files on disk: whatever the bytes — hostile bitmaps,
// truncated sections, flipped version bytes — it must return an error
// rather than panic or over-allocate. When the bytes do parse, the
// decoded catalogue must re-encode and re-decode to its own canonical
// image (decode is a fixpoint under every registered codec).
func FuzzCatalogDecode(f *testing.F) {
	entries := []Entry{
		{Key: "srv/a", Values: []string{"v"}, HasFather: true, Father: "srv", LoadCur: 2},
		{Key: "srv/ab", Children: []string{"srv/a"}, LoadPrev: 1},
		{Key: "t", Values: []string{"v", "w"}},
	}
	for _, c := range []Codec{Legacy, LOUDS} {
		for _, secs := range []Sections{0, SecValues, SecStruct, SecLoads, SecAll} {
			enc := appendAny(nil, c, entries, secs)
			f.Add(enc)
			// Truncations chop mid-section; the downgrade flips the
			// version byte so one codec parses the other's payload.
			f.Add(enc[:len(enc)/2])
			f.Add(enc[:2])
			flip := append([]byte(nil), enc...)
			flip[0] ^= 1
			f.Add(flip)
		}
	}
	// A hostile LOUDS header: huge node count over a tiny payload.
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// A bitmap whose popcount disagrees with the node count.
	f.Add([]byte{1, 0, 3, 1, 0xff, 'a', 'b', 0x07})

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, secs, err := Decode(data)
		if err != nil {
			return
		}

		if data[0] != versionLegacy && data[0] != versionLOUDS {
			t.Fatalf("Decode accepted unregistered version %d", data[0])
		}
		want := expectEntries(entries, secs)
		for _, rc := range []Codec{Legacy, LOUDS} {
			got, gotSecs, err := Decode(appendAny(nil, rc, entries, secs))
			if err != nil {
				t.Fatalf("re-encode with codec %d: %v", rc.Version(), err)
			}
			if gotSecs != secs {
				t.Fatalf("re-encode sections = %v, want %v", gotSecs, secs)
			}
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decode not a fixpoint under codec %d:\n got %+v\nwant %+v", rc.Version(), got, want)
			}
		}
	})
}
