package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlpt/internal/catalog"
)

// FuzzImageParse drives arbitrary bytes through ParseImage. An image
// arrives from a snapshot file or, in HELLO and RESYNC, from another
// process: whatever the bytes, the parser must return an error rather
// than panic or allocate from a forged count. Every input is tried
// as given and again resealed under a correct checksum, so the fuzzer
// reaches the fields behind the CRC. An image that parses must walk,
// and must re-encode to an image that restores the same state.
func FuzzImageParse(f *testing.F) {
	peers, nodes := testState()
	v2 := AppendImage(nil, 7, peers, entrySource(nodes))
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	f.Add(AppendImage(nil, 0, nil, entrySource(nil)))
	f.Add(v1Image(peers, nodes))
	if old, err := os.ReadFile(filepath.Join("testdata", "legacy-v2", "snapshot-3.snap")); err == nil {
		f.Add(old)
	}
	// Forged counts over a few bytes: peers, catalogue length, v1
	// nodes and values.
	f.Add(append([]byte(snapMagic), 2, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0))
	f.Add(append([]byte(snapMagic), 2, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0))
	f.Add(append([]byte(snapMagic), 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0))
	f.Add(append([]byte(snapMagic), 1, 0, 0, 1, 1, 'k', 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		resealed := append([]byte(nil), data...)
		if n := len(resealed) - 4; n >= 0 {
			binary.BigEndian.PutUint32(resealed[n:], crc32.ChecksumIEEE(resealed[:n]))
		}
		for _, img := range [][]byte{data, resealed} {
			snap, err := ParseImage(img)
			if err != nil {
				continue
			}
			var got []catalog.Entry
			if err := snap.Ascend(func(e catalog.Entry) bool {
				got = append(got, e)
				return true
			}); err != nil {
				continue // a catalogue section that only fails once walked
			}
			again, err := ParseImage(AppendImage(nil, snap.Seq, snap.Peers, entrySource(got)))
			if err != nil {
				t.Fatalf("re-encoded image does not parse: %v", err)
			}
			if again.Seq != snap.Seq || !reflect.DeepEqual(again.Peers, snap.Peers) {
				t.Fatalf("re-encoded image: seq %d peers %+v, want %d %+v", again.Seq, again.Peers, snap.Seq, snap.Peers)
			}
			var back []catalog.Entry
			if err := again.Ascend(func(e catalog.Entry) bool {
				back = append(back, e)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonical(back), canonical(got)) {
				t.Fatalf("re-encoded image restores a different catalogue:\n got %+v\nwant %+v", back, got)
			}
		}
	})
}

// canonical is the form an encoder writes entries in: a version-1
// image may list keys unsorted or twice, which the encoder sorts with
// the later duplicate winning, and an empty value list reads back nil.
func canonical(entries []catalog.Entry) []catalog.Entry {
	out, _, err := catalog.Decode(catalog.Append(nil, catalog.Default, entries, catalog.SecValues))
	if err != nil {
		panic(err)
	}
	return out
}
