package catalog

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// goldenSets are fixed catalogues whose LOUDS envelopes are pinned
// below: the byte form snapshot files, HELLO and RESYNC carry must not
// move when the encoder changes.
var goldenSets = []struct {
	name    string
	entries []Entry
}{
	{"empty catalogue", nil},
	{"empty key", []Entry{{Key: "", Values: []string{"root"}}}},
	{"single key", []Entry{{Key: "dgemm", Values: []string{"ep://1", "ep://2"}}}},
	{"prefix of another", []Entry{
		{Key: "dge", Values: []string{"ep://1"}},
		{Key: "dgemm", Values: []string{"ep://1"}},
		{Key: "dgemv", Values: []string{"ep://2"}},
	}},
	{"no common prefix", []Entry{
		{Key: "abc", Values: []string{"x"}},
		{Key: "m"},
		{Key: "xyz", Values: []string{"x", "y"}},
	}},
	{"unsorted with duplicates", []Entry{
		{Key: "b", Values: []string{"old"}},
		{Key: "ab", Values: []string{"v"}},
		{Key: "b", Values: []string{"new", "newer"}},
		{Key: "a"},
		{Key: "ab", Values: []string{"w"}},
	}},
}

var goldenMasks = []struct {
	name string
	secs Sections
}{
	{"none", 0}, {"values", SecValues},
}

// goldenLOUDS is the envelope of each set under each mask, indexed
// like goldenSets and goldenMasks.
var goldenLOUDS = [][]string{
	{"010000", "010100"},
	{"010001010001", "010101010001090104726f6f74000100"},
	{"0100060155016467656d6d20", "0101060155016467656d6d2013020665703a2f2f310665703a2f2f3200020001"},
	{"0100070355036467656d6d7668", "0101070355036467656d6d766815020665703a2f2f310665703a2f2f32010100000101"},
	{"01000803970a616d786279637ac4", "01010803970a616d786279637ac40e0201780179000100000000020001"},
	{"010004030b6162620e", "010104030b6162620e1603036e6577056e657765720177000000010200020001"},
}

// TestLOUDSGoldens holds the LOUDS encoder to the envelopes pinned
// above, byte for byte, and each envelope to its catalogue on decode.
func TestLOUDSGoldens(t *testing.T) {
	for i, set := range goldenSets {
		for j, m := range goldenMasks {
			enc, err := hex.DecodeString(goldenLOUDS[i][j])
			if err != nil {
				t.Fatal(err)
			}
			if got := Append(nil, LOUDS, set.entries, m.secs); !bytes.Equal(got, enc) {
				t.Errorf("%s, %s sections: envelope\n got %x\nwant %x", set.name, m.name, got, enc)
				continue
			}
			dec, secs, err := Decode(enc)
			if err != nil || secs != m.secs || !entriesEqual(dec, expectEntries(set.entries, m.secs)) {
				t.Errorf("%s, %s sections: decodes to %+v (%v, %v)", set.name, m.name, dec, secs, err)
			}
		}
	}
}
