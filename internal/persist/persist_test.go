package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dlpt/internal/catalog"
	"dlpt/internal/workload"
)

func testState() ([]PeerState, []catalog.Entry) {
	peers := []PeerState{{ID: "aaa", Capacity: 100}, {ID: "mmm", Capacity: 200}}
	nodes := []catalog.Entry{
		{Key: "dgemm", Values: []string{"ep://1", "ep://2"}},
		{Key: "dgemv", Values: []string{"ep://3"}},
	}
	return peers, nodes
}

// entrySource adapts an eager sorted entry list to EntrySource.
type entrySource []catalog.Entry

func (es entrySource) Ascend(yield func(catalog.Entry) bool) {
	for _, e := range es {
		if !yield(e) {
			return
		}
	}
}

// writeSnapshot persists the state as the next epoch in one call:
// BeginSnapshot plus Commit, with no cluster lock to get off of.
func writeSnapshot(s *Store, peers []PeerState, nodes []catalog.Entry) (uint64, error) {
	p, err := s.BeginSnapshot()
	if err != nil {
		return 0, err
	}
	return p.Commit(peers, entrySource(nodes))
}

// nodeList materializes a snapshot's catalogue.
func nodeList(t *testing.T, sn *Snapshot) []catalog.Entry {
	t.Helper()
	var out []catalog.Entry
	if err := sn.Ascend(func(e catalog.Entry) bool {
		out = append(out, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	peers, nodes := testState()
	seq, err := writeSnapshot(s, peers, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first snapshot seq = %d", seq)
	}
	if err := s.Append(false, "saxpy", "ep://4"); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(true, "dgemv", "ep://3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || st.Snapshot.Seq != 1 {
		t.Fatalf("snapshot not loaded: %+v", st.Snapshot)
	}
	if len(st.Snapshot.Peers) != 2 || st.Snapshot.Peers[1].Capacity != 200 {
		t.Fatalf("peers = %+v", st.Snapshot.Peers)
	}
	if got := nodeList(t, st.Snapshot); len(got) != 2 || len(got[0].Values) != 2 {
		t.Fatalf("nodes = %+v", got)
	}
	if len(st.Journal) != 2 {
		t.Fatalf("journal = %+v", st.Journal)
	}
	if st.Journal[0].Remove || st.Journal[0].Key != "saxpy" {
		t.Fatalf("journal[0] = %+v", st.Journal[0])
	}
	if !st.Journal[1].Remove || st.Journal[1].Key != "dgemv" {
		t.Fatalf("journal[1] = %+v", st.Journal[1])
	}
}

func TestSnapshotRotationPrunesOldEpochs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	peers, nodes := testState()
	for i := 0; i < 4; i++ {
		if _, err := writeSnapshot(s, peers, nodes); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(false, "k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := s.epochs(snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != keepSnapshots || seqs[len(seqs)-1] != 4 {
		t.Fatalf("kept snapshots %v", seqs)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot.Seq != 4 {
		t.Fatalf("loaded seq %d", st.Snapshot.Seq)
	}
	// Only the records of the newest epoch replay on top of it.
	if len(st.Journal) != 1 {
		t.Fatalf("journal = %+v", st.Journal)
	}
}

func TestTruncatedJournalStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(false, "key", "value"); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the last record: drop its trailing bytes.
	path := filepath.Join(dir, "journal-1.log")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Journal) != 2 {
		t.Fatalf("torn journal replayed %d records, want 2", len(st.Journal))
	}
}

func TestCorruptJournalRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(false, "key", "value"); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a payload byte in the middle record.
	path := filepath.Join(dir, "journal-1.log")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(buf) / 3
	buf[recLen+6] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Journal) != 1 {
		t.Fatalf("corrupt journal replayed %d records, want 1", len(st.Journal))
	}
}

// TestUndecodableJournalRecordFailsLoad pins that a record whose CRC
// passes but whose payload does not decode — a kind this build does not
// know, or a malformed register — fails Load with a *RecordError at that
// record, instead of ending replay there as a torn tail does.
func TestUndecodableJournalRecordFailsLoad(t *testing.T) {
	frame := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		out = append(out, payload...)
		return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"unknown kind", append([]byte{7}, catalog.AppendString(catalog.AppendString(nil, "key"), "value")...)},
		{"malformed register", append([]byte{opRegister}, catalog.AppendString(nil, "key")...)},
		{"trailing bytes", append(append([]byte{opRegister}, catalog.AppendString(catalog.AppendString(nil, "key"), "value")...), 0)},
		{"malformed ring", append([]byte{opRing}, "DLPTSNP1"...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			peers, nodes := testState()
			if _, err := writeSnapshot(s, peers, nodes); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := s.Append(false, "key", "value"); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			path := filepath.Join(dir, "journal-1.log")
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			first := buf[:len(buf)/2]
			buf = append(append(slices.Clone(first), frame(tc.payload)...), buf[len(first):]...)
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir) // the record passes its CRC: reopening keeps it
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			st, err := s2.Load()
			var rerr *RecordError
			if !errors.As(err, &rerr) || rerr.Path != path || rerr.Offset != int64(len(first)) {
				t.Fatalf("Load = %v, %v; want a *RecordError at offset %d of %s", st, err, len(first), path)
			}
		})
	}
}

func TestCorruptSnapshotFallsBackOneEpoch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(false, "bridge", "ep"); err != nil {
		t.Fatal(err)
	}
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(false, "tail", "ep"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the newest snapshot.
	path := filepath.Join(dir, "snapshot-2.snap")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || st.Snapshot.Seq != 1 {
		t.Fatalf("did not fall back to epoch 1: %+v", st.Snapshot)
	}
	// Epoch-1 and epoch-2 journals bridge forward past the torn
	// snapshot: both records replay.
	if len(st.Journal) != 2 {
		t.Fatalf("journal = %+v", st.Journal)
	}
	if st.Journal[0].Key != "bridge" || st.Journal[1].Key != "tail" {
		t.Fatalf("journal order = %+v", st.Journal)
	}
}

// TestUnparsableSnapshotFailsLoad pins that a snapshot whose CRC
// verifies but whose catalogue envelope does not parse — a codec
// version this build does not know, or a section it does not carry —
// fails Load with an *ImageError naming the file, instead of falling
// back one epoch as a torn write does.
func TestUnparsableSnapshotFailsLoad(t *testing.T) {
	peers, nodes := testState()
	envelope := len(catalog.AppendSeq(nil, entrySource(nodes).Ascend, catalog.SecValues))
	for _, tc := range []struct {
		name   string
		at, to int // the envelope byte to overwrite, and its value
	}{
		{"unknown codec version", 0, 9},
		{"load section", 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, cat := range [][]catalog.Entry{nodes[:1], nodes} {
				if _, err := writeSnapshot(s, peers, cat); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			img := AppendImage(nil, 2, peers, entrySource(nodes))
			body := img[:len(img)-4]
			body[len(body)-envelope+tc.at] = byte(tc.to)
			img = binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
			path := filepath.Join(dir, "snapshot-2.snap")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			st, err := s2.Load()
			var ierr *ImageError
			if !errors.As(err, &ierr) || ierr.Path != path {
				t.Fatalf("Load = %+v, %v; want an *ImageError for %s", st, err, path)
			}
		})
	}
}

func TestLoadEmptyDirectory(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot != nil {
		t.Fatalf("snapshot from empty dir: %+v", st.Snapshot)
	}
	if len(st.Journal) != 0 {
		t.Fatalf("journal from empty dir: %+v", st.Journal)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Append(false, "k", "v"); err == nil {
		t.Fatal("append on closed store succeeded")
	}
	if _, err := writeSnapshot(s, nil, nil); err == nil {
		t.Fatal("snapshot on closed store succeeded")
	}
}

// TestReopenTruncatesTornTail pins the crash-mid-append recovery: a
// torn record at the journal tail is cut away on reopen, so records
// appended afterwards stay reachable to replay.
func TestReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(false, "before", "ep"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Crash mid-append: tear the tail of the last record.
	path := filepath.Join(dir, "journal-1.log")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(buf, buf[:7]...) // garbage partial record
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen and keep appending: the new records must land after the
	// valid prefix, not after the garbage.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(false, "after", "ep"); err != nil {
		t.Fatal(err)
	}
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if len(st.Journal) != 2 {
		t.Fatalf("replayed %d records, want 2 (%+v)", len(st.Journal), st.Journal)
	}
	if st.Journal[0].Key != "before" || st.Journal[1].Key != "after" {
		t.Fatalf("journal = %+v", st.Journal)
	}
}

// TestJournalLeftByProcessDeath pins what a killed process leaves: the
// journal as it stands while its store is still open (the records, then
// on Linux the zeroed rest of the mapped window) loads every appended
// record, and a store reopened on it cuts the tail off and appends after
// the last record.
func TestJournalLeftByProcessDeath(t *testing.T) {
	dir, killed := t.TempDir(), t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	const n = 3000 // about 100 KB of records: more than one mapped window
	for i := range n {
		if err := s.Append(i%3 == 2, fmt.Sprintf("key%05d", i), "ep://host:4000"); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"snapshot-1.snap", "journal-1.log"} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(killed, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := os.ReadFile(filepath.Join(dir, "journal-1.log")) // Close cut it back
	if err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadFile(filepath.Join(killed, "journal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	tail, ok := bytes.CutPrefix(left, records)
	if !ok || bytes.Count(tail, []byte{0}) != len(tail) {
		t.Fatalf("the open journal is not its %d record bytes and a zeroed tail (%d bytes)", len(records), len(left))
	}
	if runtime.GOOS == "linux" && len(tail) == 0 {
		t.Fatal("the open journal has no preallocated tail")
	}

	s2, err := Open(killed)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info, err := os.Stat(filepath.Join(killed, "journal-1.log")); err != nil || info.Size() != int64(len(records)) {
		t.Fatalf("reopened journal: %v, %v; want %d bytes", info.Size(), err, len(records))
	}
	if err := s2.Append(false, "after", "ep"); err != nil {
		t.Fatal(err)
	}
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Journal) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(st.Journal), n+1)
	}
	for i, rec := range st.Journal[:n] {
		if want := (Record{Remove: i%3 == 2, Key: fmt.Sprintf("key%05d", i), Value: "ep://host:4000"}); rec != want {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
	if rec := st.Journal[n]; rec.Key != "after" {
		t.Fatalf("the append after reopening replays as %+v", rec)
	}
}

// TestTruncatedJournalFailsAppend pins the fault guard of the mapped
// journal: a journal file truncated behind an open store makes the next
// append return an error instead of killing the process, and the next
// snapshot reports it as the gap it heals.
func TestTruncatedJournalFailsAppend(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("only the mapped journal faults on a truncated file")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(false, "before", "ep"); err != nil { // maps the window
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "journal-1.log"), 0); err != nil {
		t.Fatal(err)
	}
	err = s.Append(false, "lost", "ep")
	if err == nil {
		t.Fatal("an append into a truncated journal succeeded")
	}
	t.Logf("append into a truncated journal: %v", err)
	if _, err := writeSnapshot(s, peers, nodes); err == nil || !strings.Contains(err.Error(), "journal appends failed") {
		t.Fatalf("snapshot after the failed append reported %v", err)
	}
	if err := s.Append(false, "healed", "ep"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Journal) != 1 || st.Journal[0].Key != "healed" {
		t.Fatalf("journal after the heal = %+v", st.Journal)
	}
}

// The rotated journal keeps its preallocated tail through
// BeginSnapshot, which runs under the caller's write lock, and Commit,
// which runs off it, cuts the file back to its records.
func TestCommitCutsRotatedJournal(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Append(false, k, "ep"); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rotated := s.jrnlPath(p.Seq() - 1)
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(rotated)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	records := 0
	valid, err := scanJournal(rotated, func([]byte) error { records++; return nil })
	if err != nil || records != 3 {
		t.Fatalf("the rotated journal scans %d records, %v", records, err)
	}
	if runtime.GOOS == "linux" && size() == valid {
		t.Fatal("BeginSnapshot cut the rotated journal back under the caller's lock")
	}
	peers, nodes := testState()
	if _, err := p.Commit(peers, entrySource(nodes)); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != valid {
		t.Fatalf("the rotated journal is %d bytes after Commit, its records %d", got, valid)
	}
}

// TestBeginCommitCrashWindow pins the off-lock snapshot protocol's
// crash safety: a process that dies between BeginSnapshot (journal
// rotated into the new epoch) and Commit (snapshot file written)
// loses nothing — Load falls back one epoch and replays both
// journals — and a reopened store continues from the rotated journal
// epoch instead of double-booking it.
func TestBeginCommitCrashWindow(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(false, "preCapture", "ep"); err != nil {
		t.Fatal(err)
	}
	p, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq() != 2 {
		t.Fatalf("pending seq = %d", p.Seq())
	}
	// Mutations racing the off-lock encode land in the new epoch.
	if err := s.Append(false, "postCapture", "ep"); err != nil {
		t.Fatal(err)
	}
	// Crash before Commit.
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || st.Snapshot.Seq != 1 {
		t.Fatalf("fallback snapshot = %+v", st.Snapshot)
	}
	if len(st.Journal) != 2 || st.Journal[0].Key != "preCapture" || st.Journal[1].Key != "postCapture" {
		t.Fatalf("journal = %+v", st.Journal)
	}
	// The reopened store must continue in epoch 2 (the rotated
	// journal), so the next snapshot is epoch 3 — appending new
	// records to an already-rotated-past journal would scramble
	// replay order.
	if err := s2.Append(false, "postCrash", "ep"); err != nil {
		t.Fatal(err)
	}
	seq, err := writeSnapshot(s2, peers, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("post-crash snapshot seq = %d, want 3", seq)
	}
}

// v1Image hand-rolls a version-1 snapshot image (inline node list),
// byte-compatible with the original writer.
func v1Image(peers []PeerState, nodes []catalog.Entry) []byte {
	buf := []byte(snapMagic)
	buf = binary.AppendUvarint(buf, snapVersionNodes)
	buf = binary.AppendUvarint(buf, 1) // seq
	buf = binary.AppendUvarint(buf, uint64(len(peers)))
	for _, p := range peers {
		buf = catalog.AppendString(buf, p.ID)
		buf = binary.AppendUvarint(buf, uint64(p.Capacity))
	}
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	for _, n := range nodes {
		buf = catalog.AppendString(buf, n.Key)
		buf = binary.AppendUvarint(buf, uint64(len(n.Values)))
		for _, v := range n.Values {
			buf = catalog.AppendString(buf, v)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestV1SnapshotStillLoads pins the migration contract: snapshot
// files written by the original inline-node-list format load
// unchanged.
func TestV1SnapshotStillLoads(t *testing.T) {
	dir := t.TempDir()
	peers, nodes := testState()
	buf := v1Image(peers, nodes)
	if err := os.WriteFile(filepath.Join(dir, "snapshot-1.snap"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	if st.Snapshot == nil || st.Snapshot.Seq != 1 {
		t.Fatalf("v1 snapshot not loaded: %+v", st.Snapshot)
	}
	if !reflect.DeepEqual(nodeList(t, st.Snapshot), nodes) {
		t.Fatalf("v1 nodes = %+v", nodeList(t, st.Snapshot))
	}
}

// TestLegacyCodedSnapshotStillLoads pins the other half of the
// migration contract on a directory an older build left behind:
// testdata/legacy-v2 was written by the last build that could still
// select the verbose catalogue encoding (version-2 snapshot files
// around a version-0 envelope, plus a journal tail). It loads, and its
// catalogue is entry for entry what the image written today restores.
func TestLegacyCodedSnapshotStillLoads(t *testing.T) {
	dir := t.TempDir() // Open appends to the newest journal: work on a copy
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacy-v2"))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot-3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	// Only the verbose encoding spells a key inline before its values.
	if !bytes.Contains(raw, []byte("\x05daxpy\x01\x0aep://daxpy")) {
		t.Fatal("fixture snapshot is not legacy-coded")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	if st.Snapshot == nil || st.Snapshot.Seq != 3 || len(st.Snapshot.Peers) != 6 {
		t.Fatalf("fixture snapshot = %+v", st.Snapshot)
	}
	if len(st.Journal) != 4 {
		t.Fatalf("fixture journal tail = %+v", st.Journal)
	}
	old := nodeList(t, st.Snapshot)
	if len(old) != 46 {
		t.Fatalf("fixture catalogue has %d entries, want 46", len(old))
	}
	again, err := ParseImage(AppendImage(nil, st.Snapshot.Seq, st.Snapshot.Peers, entrySource(old)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Peers, st.Snapshot.Peers) || !reflect.DeepEqual(nodeList(t, again), old) {
		t.Fatalf("re-encoded image restores a different state:\n got %+v\nwant %+v", nodeList(t, again), old)
	}
}

// TestAppendErrorSurfacesAtSnapshot pins the journal-failure
// contract: a failed append is reported by the next snapshot
// (which heals the gap) instead of passing silently.
func TestAppendErrorSurfacesAtSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Break the journal handle behind the store's back.
	s.mu.Lock()
	s.journal.Close()
	s.mu.Unlock()
	if err := s.Append(false, "k", "v"); err == nil {
		t.Fatal("append on a closed handle succeeded")
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err == nil {
		t.Fatal("snapshot after failed appends reported no error")
	}
	// The epoch turned over; the failure was surfaced once and the
	// store is whole again.
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatalf("second snapshot still failing: %v", err)
	}
}

// TestJournalCarriesRules pins when the journal alone can make a
// replication tick durable: never before this store committed an image,
// then only while no append has failed since and the records journaled
// since stay under a quarter of the image's keys. A ring change is one
// ring record, written once, that counts once per peer, and a failure
// to write it needs an image. A journal-only tick is an fsync, and a
// reload replays the image and its journal, ring included.
func TestJournalCarriesRules(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	peers := []PeerState{{ID: "aaa", Capacity: 100}, {ID: "mmm", Capacity: 200}}
	moved := []PeerState{{ID: "aaa", Capacity: 100}, {ID: "ggg", Capacity: 50}, {ID: "mmm", Capacity: 200}}
	if s.JournalCarries(peers) {
		t.Fatal("the journal carries a tick before any image")
	}
	nodes := make([]catalog.Entry, 32)
	for i := range nodes {
		nodes[i] = catalog.Entry{Key: string(rune('a' + i)), Values: []string{"ep"}}
	}
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	if !s.JournalCarries(peers) || s.records != 0 {
		t.Fatalf("an idle tick after an image needs another image, or journaled %d records", s.records)
	}
	if err := s.Append(false, "zz", "ep"); err != nil {
		t.Fatal(err)
	}
	if !s.JournalCarries(peers) {
		t.Fatal("one record over 32 keys needs an image")
	}
	// The ring record counts once per peer, and a tick with the same
	// ring again appends nothing.
	for range 2 {
		if !s.JournalCarries(moved) || s.records != 4 {
			t.Fatalf("a ring change: %d records counted, want the registration and the ring's 3 peers", s.records)
		}
	}
	if err := s.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"zz", "zy", "zx", "zw"} {
		if err := s.Append(true, k, "ep"); err != nil {
			t.Fatal(err)
		}
	}
	if s.JournalCarries(moved) {
		t.Fatal("8 records over 32 keys (a quarter) carried without an image")
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || len(nodeList(t, st.Snapshot)) != len(nodes) || len(st.Journal) != 5 {
		t.Fatalf("reload: snapshot %v, %d records", st.Snapshot != nil, len(st.Journal))
	}
	if !reflect.DeepEqual(st.Peers, moved) || !reflect.DeepEqual(st.Snapshot.Peers, peers) {
		t.Fatalf("reload: ring %v (image %v), want %v", st.Peers, st.Snapshot.Peers, moved)
	}
	st.Release()

	// A ring with a quarter as many peers as the image has keys is a
	// quarter of the image on its own: the tick after it writes an image.
	if _, err := writeSnapshot(s, peers, nodes[:12]); err != nil {
		t.Fatal(err)
	}
	if !s.JournalCarries(moved) || s.JournalCarries(moved) {
		t.Fatal("a 3-peer ring record over 12 keys (a quarter) carried a second tick without an image")
	}
	if _, err := writeSnapshot(s, peers, nodes[:16]); err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c", "d"} {
		if !s.JournalCarries(peers) {
			t.Fatalf("%d records over 16 keys need an image", i)
		}
		if err := s.Append(false, k, "ep2"); err != nil {
			t.Fatal(err)
		}
	}
	if s.JournalCarries(peers) {
		t.Fatal("4 records over 16 keys (a quarter) carried without an image")
	}
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.journal.Close() // break the journal handle behind the store's back
	s.mu.Unlock()
	if s.JournalCarries(moved) {
		t.Fatal("the journal carries a ring change it failed to record")
	}
	if err := s.Append(false, "k", "v"); err == nil {
		t.Fatal("append on a closed handle succeeded")
	}
	if s.JournalCarries(peers) {
		t.Fatal("the journal carries a tick after a failed append")
	}
	if err := s.SyncJournal(); err != nil { // a closed handle is synced by name
		t.Fatalf("sync of a closed journal handle: %v", err)
	}
	// A pending image is not the newest committed one.
	p, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.JournalCarries(peers) {
		t.Fatal("the journal carries a tick while an image is pending")
	}
	if _, err := p.Commit(peers, entrySource(nodes)); err == nil {
		t.Fatal("the failed append was not surfaced")
	}
	if !s.JournalCarries(peers) {
		t.Fatal("the committed image does not carry the next tick")
	}
}

// TestAllocsPerAppend is the allocation budget of a journal append,
// which every durable write pays: the record is encoded into the
// store's own buffer.
func TestAllocsPerAppend(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Append(false, "dgemm_sparse", "ep://host:4000"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocs per append", allocs)
	const ceiling = 0
	if allocs > ceiling {
		t.Fatalf("%.2f allocs per append, ceiling %d", allocs, ceiling)
	}
}

// gridCapture is the n-key grid catalogue as the core's capture yields
// it: sorted, distinct keys, each behind one of 16 endpoints.
func gridCapture(n int) entrySource {
	ks := workload.GridCorpus(n)
	slices.Sort(ks)
	var out entrySource
	for i, k := range slices.Compact(ks) {
		out = append(out, catalog.Entry{Key: string(k), Values: []string{fmt.Sprintf("ep://grid-%d", i%16)}})
	}
	return out
}

// TestAllocsPerImage is the allocation budget of one overlay image, which
// every durable tick that cannot journal, every snapshot file and every
// HELLO and RESYNC payload pays: the catalogue is encoded from the
// capture straight into the buffer, so what it allocates is a handful
// of tables that do not grow with the catalogue (the pointer-trie
// encoder allocated 34,989 objects for GridCorpus(20000)).
func TestAllocsPerImage(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	peers, _ := testState()
	perImage := func(n int) float64 {
		nodes := gridCapture(n)
		buf := make([]byte, 0, 2*len(AppendImage(nil, 1, peers, nodes)))
		return testing.AllocsPerRun(10, func() { AppendImage(buf, 1, peers, nodes) })
	}
	small, large := perImage(2000), perImage(20000)
	t.Logf("%.0f allocs per image at 2k keys, %.0f at 20k", small, large)
	if large > 64 || large > small+16 {
		t.Fatalf("%.0f allocs per image at 20k keys (ceiling 64), %.0f at 2k (ceiling 16 more)", large, small)
	}
}

// TestImageMatchesCopiedEncoding holds AppendImage, which encodes the
// catalogue from the source straight into dst, to the bytes of the
// encoder it replaced: the source copied into a slice, encoded into a
// blob of its own, and the blob appended behind its length. Sorted and
// unsorted sources, small and large, cross the length prefix's widths.
func TestImageMatchesCopiedEncoding(t *testing.T) {
	peers, nodes := testState()
	grid := gridCapture(3000)
	unsorted := entrySource{nodes[1], nodes[0], {Key: "dgemv", Values: []string{"ep://4"}}}
	for _, cat := range []entrySource{nil, nodes, unsorted, grid[:20], grid} {
		want := []byte(snapMagic)
		want = binary.AppendUvarint(binary.AppendUvarint(want, snapVersionCatalog), 9)
		want = binary.AppendUvarint(want, uint64(len(peers)))
		for _, ps := range peers {
			want = binary.AppendUvarint(catalog.AppendString(want, ps.ID), uint64(ps.Capacity))
		}
		blob := catalog.Append(nil, catalog.LOUDS, cat, catalog.SecValues)
		want = append(binary.AppendUvarint(want, uint64(len(blob))), blob...)
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
		if got := AppendImage(nil, 9, peers, cat); !bytes.Equal(got, want) {
			t.Fatalf("%d entries: image differs from the copied encoding", len(cat))
		}
	}
}
