package catalog

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// goldenSets are fixed catalogues whose LOUDS envelopes are pinned
// below: the byte form snapshot files, HELLO, RESYNC and REPLICA
// frames carry must not move when the encoder changes. The envelopes
// with the structure section, which no encoder writes any more, stay
// as decode-only fixtures: earlier versions wrote them.
var goldenSets = []struct {
	name    string
	entries []Entry
}{
	{"empty catalogue", nil},
	{"empty key", []Entry{
		{Key: "", Values: []string{"root"}, Children: []string{"a"}, LoadPrev: 3, LoadCur: 1},
	}},
	{"single key", []Entry{
		{Key: "dgemm", Values: []string{"ep://1", "ep://2"}, Father: "dge", HasFather: true, LoadPrev: 7, LoadCur: 300},
	}},
	{"prefix of another", []Entry{
		{Key: "dge", Values: []string{"ep://1"}, Children: []string{"dgemm", "dgemv"}, LoadCur: 2},
		{Key: "dgemm", Values: []string{"ep://1"}, Father: "dge", HasFather: true, LoadPrev: 1},
		{Key: "dgemv", Values: []string{"ep://2"}, Father: "dge", HasFather: true},
	}},
	{"no common prefix", []Entry{
		{Key: "abc", Values: []string{"x"}, Father: "", HasFather: true},
		{Key: "m"},
		{Key: "xyz", Values: []string{"x", "y"}, Children: []string{"xyz0", "xyz1"}, LoadPrev: 128, LoadCur: 5},
	}},
	{"unsorted with duplicates", []Entry{
		{Key: "b", Values: []string{"old"}, LoadCur: 1},
		{Key: "ab", Values: []string{"v"}, Father: "a", HasFather: true},
		{Key: "b", Values: []string{"new", "newer"}, Children: []string{"ba"}, LoadPrev: 4},
		{Key: "a", Children: []string{"ab", "b"}},
		{Key: "ab", Values: []string{"w"}, Father: "a", HasFather: true, LoadCur: 9},
	}},
}

var goldenMasks = []struct {
	name string
	secs Sections
}{
	{"none", 0}, {"values", SecValues}, {"struct", SecStruct}, {"loads", SecLoads}, {"all", SecAll},
}

// goldenLOUDS is the envelope of each set under each mask, indexed
// like goldenSets and goldenMasks.
var goldenLOUDS = [][]string{
	{"010000", "010100", "010200", "010400", "010700"},
	{"010001010001", "010101010001090104726f6f74000100", "0102020101610103000101", "010401010001020301", "01070201016101090104726f6f7400010003000101020301"},
	{"0100060155016467656d6d20", "0101060155016467656d6d2013020665703a2f2f310665703a2f2f3200020001", "0102060155016467656d6d20020400", "0104060155016467656d6d200307ac02", "0107060155016467656d6d2013020665703a2f2f310665703a2f2f32000200010204000307ac02"},
	{"0100070355036467656d6d7668", "0101070355036467656d6d766815020665703a2f2f310665703a2f2f32010100000101", "0102070355036467656d6d7668080002050604000400", "0104070355036467656d6d766806000201000000", "0107070355036467656d6d766815020665703a2f2f310665703a2f2f3201010000010108000205060400040006000201000000"},
	{"01000803970a616d786279637ac4", "01010803970a616d786279637ac40e0201780179000100000000020001", "01020a0397ca00616d786279637a3031c400080100000000020809", "01040803970a616d786279637ac40700000000800105", "01070a0397ca00616d786279637a3031c4000e02017801790001000000000200010801000000000208090700000000800105"},
	{"010004030b6162620e", "010104030b6162620e1603036e6577056e657765720177000000010200020001", "010205032b00616262610e09000203020200000104", "010404030b6162620e06000000090400", "010705032b00616262610e1603036e6577056e6577657201770000000102000200010900020302020000010406000000090400"},
}

// TestLOUDSGoldens holds the LOUDS encoder to the envelopes pinned
// above, byte for byte (the reference encoder where the structure
// section is decode-only), and each envelope to its catalogue on decode.
func TestLOUDSGoldens(t *testing.T) {
	for i, set := range goldenSets {
		for j, m := range goldenMasks {
			enc, err := hex.DecodeString(goldenLOUDS[i][j])
			if err != nil {
				t.Fatal(err)
			}
			if got := appendAny(nil, LOUDS, set.entries, m.secs); !bytes.Equal(got, enc) {
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
