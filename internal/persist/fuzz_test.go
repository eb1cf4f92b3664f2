package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// FuzzJournalScan drives arbitrary bytes through the journal scan as
// the contents of a journal file. Whatever the bytes, the scan must not
// panic; its valid prefix lies within them and is exactly the records
// it replayed, each framed with a nonzero length and a matching CRC, so
// nothing after a zero length or a failed CRC is replayed; and it stops
// only where no such record starts. Scanning the valid prefix again
// replays the same records, and decoding them as Load does either
// succeeds or fails at a record of that prefix.
func FuzzJournalScan(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		f.Fatal(err)
	}
	if !s.JournalCarries(append(peers, PeerState{ID: "zzz", Capacity: 5})) { // journals a ring record
		f.Fatal("the ring change was not journaled")
	}
	for i, key := range []string{"dgemm", "dgemv", "dgemm"} {
		if err := s.Append(i == 2, key, "ep://1"); err != nil {
			f.Fatal(err)
		}
	}
	path := filepath.Join(dir, "journal-1.log")
	whileOpen, err := os.ReadFile(path) // on Linux: the records, then the zeroed window
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	records, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(records)
	f.Add(records[:len(records)-5])
	f.Add(whileOpen)
	f.Add(append(slices.Clone(records), make([]byte, 64)...))
	f.Add(appendFrame(nil, nil)) // an empty payload's CRC is 0: all zeros

	f.Fuzz(func(t *testing.T, data []byte) {
		var got [][]byte
		collect := func(p []byte) error {
			got = append(got, p)
			return nil
		}
		valid, err := scanRecords(data, collect)
		if err != nil || valid < 0 || valid > len(data) {
			t.Fatalf("scan of %d bytes = %d, %v", len(data), valid, err)
		}
		var framed []byte
		for _, p := range got {
			if len(p) == 0 {
				t.Fatal("a zero length was replayed")
			}
			framed = appendFrame(framed, p)
		}
		if !bytes.Equal(framed, data[:valid]) {
			t.Fatalf("the valid prefix (%d bytes) is not the %d records replayed", valid, len(got))
		}
		if rest := data[valid:]; len(rest) >= 4 {
			n := uint64(binary.BigEndian.Uint32(rest))
			if n > 0 && n+8 <= uint64(len(rest)) && crc32.ChecksumIEEE(rest[4:4+n]) == binary.BigEndian.Uint32(rest[4+n:]) {
				t.Fatalf("the scan stopped at %d before a whole record", valid)
			}
		}
		first := got
		got = nil
		if again, err := scanRecords(data[:valid], collect); err != nil || again != valid || !reflect.DeepEqual(got, first) {
			t.Fatalf("rescanning the valid prefix: %d, %v and %d records, want %d and %d", again, err, len(got), valid, len(first))
		}
		var st LoadedState
		if at, err := scanRecords(data, st.replay); at > valid || err == nil && at != valid {
			t.Fatalf("replay stopped at %d (%v), the valid prefix is %d", at, err, valid)
		}
	})
}

// appendFrame appends payload framed as a journal record: its length,
// the payload and its CRC.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
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
