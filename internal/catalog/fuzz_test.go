package catalog

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzEntries builds a catalogue from fuzzed blobs: keys and values
// come NUL-separated, and some entries carry two values.
func fuzzEntries(keysBlob, valsBlob string) []Entry {
	ks := splitBlob(keysBlob)
	vals := splitBlob(valsBlob)
	entries := make([]Entry, 0, len(ks))
	for i, k := range ks {
		e := Entry{Key: k}
		if len(vals) > 0 {
			e.Values = append(e.Values, vals[i%len(vals)])
			if i%3 == 0 {
				e.Values = append(e.Values, vals[0])
			}
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
// sorted with later duplicates winning, values dropped unless secs
// carries them, empty slices nil.
func expectEntries(entries []Entry, secs Sections) []Entry {
	want := append([]Entry(nil), canonicalize(entries)...)
	for i := range want {
		if e := &want[i]; secs&SecValues == 0 || len(e.Values) == 0 {
			e.Values = nil
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
// This is the byte-determinism contract overlay images rest on.
func FuzzCatalogRoundTrip(f *testing.F) {
	f.Add("a\x00ab\x00abc", "v1\x00v2", byte(SecValues))
	f.Add("", "", byte(0))
	f.Add("dup\x00dup\x00z", "x", byte(SecValues))
	f.Add("k\xffe\x00y\x00", "\x01\x02", byte(0))

	f.Fuzz(func(t *testing.T, keysBlob, valsBlob string, secsByte byte) {
		secs := Sections(secsByte) & SecValues
		entries := fuzzEntries(keysBlob, valsBlob)
		want := expectEntries(entries, secs)

		decoded := make([][]Entry, 0, 2)
		for _, c := range []Codec{Legacy, LOUDS} {
			enc := Append(nil, c, entries, secs)
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
// rather than panic or over-allocate, and Decode and NewView accept
// only a registered version and a sections byte of 0 or SecValues.
// When the bytes do parse, the decoded catalogue must re-encode and
// re-decode to its own canonical image (decode is a fixpoint under
// every registered codec).
func FuzzCatalogDecode(f *testing.F) {
	entries := []Entry{
		{Key: "srv/a", Values: []string{"v"}},
		{Key: "srv/ab"},
		{Key: "t", Values: []string{"v", "w"}},
	}
	for _, c := range []Codec{Legacy, LOUDS} {
		// Besides the two sections bytes an encoder writes, headers
		// naming the structure and load sections earlier REPLICA frames
		// carried, which a decoder refuses.
		for _, secs := range []byte{0, byte(SecValues), 2, 4, 7} {
			enc := Append(nil, c, entries, Sections(secs)&SecValues)
			enc[1] = secs
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
		known := len(data) >= 2 && data[0] <= versionLOUDS && data[1] <= byte(SecValues)
		if _, err := NewView(data); err == nil && !known {
			t.Fatalf("NewView accepted the header %x", data[:2])
		}
		entries, secs, err := Decode(data)
		if err != nil {
			return
		}
		if !known {
			t.Fatalf("Decode accepted the header %x", data[:2])
		}
		want := expectEntries(entries, secs)
		for _, rc := range []Codec{Legacy, LOUDS} {
			got, gotSecs, err := Decode(Append(nil, rc, entries, secs))
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
