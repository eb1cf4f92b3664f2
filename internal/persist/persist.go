// Package persist is the durability layer of the fault-tolerance
// subsystem: it serializes the overlay's replica state to disk so a
// cold restart — every peer dead, including the last one — can
// rebuild the tree from the persistence directory.
//
// The on-disk layout is a sequence of versioned snapshot files plus
// one append-only journal per snapshot epoch:
//
//	snapshot-<seq>.snap — the full replica state at one Replicate
//	                      tick: the peer ring (ids and capacities)
//	                      and every replicated data node (key and
//	                      values), CRC-protected, written to a temp
//	                      file, fsynced and renamed into place.
//	journal-<seq>.log   — every catalogue mutation (register /
//	                      unregister) since snapshot <seq>, one
//	                      CRC-framed record per operation, appended
//	                      in order.
//
// Snapshot writing is split in two so the expensive half runs off
// the cluster write lock: BeginSnapshot allocates the next epoch and
// rotates the journal — the only steps that must be atomic with the
// caller's state capture — and the returned PendingSnapshot's Commit
// encodes, writes and fsyncs the snapshot file with no store-wide
// lock held, so concurrent journal appends (and therefore the
// cluster's registration path) never stall behind an fsync. A crash
// between Begin and Commit is safe by construction: Load falls back
// to the previous epoch's snapshot and replays both epochs' journals
// forward.
//
// Journal records land in the journal of the epoch they follow. Load
// is corruption-tolerant: it walks the snapshots newest-first until
// one passes its CRC, then replays every journal of that epoch and
// later in order, stopping cleanly at the first truncated or corrupt
// record — a torn write costs at most the tail of a journal, never
// the snapshot behind it. The two newest snapshots are kept so a
// torn snapshot write can always fall back one epoch (the journals
// of the older epoch bridge the gap forward).
//
// A snapshot file is one overlay image (AppendImage / ParseImage):
// magic, version, epoch, the peer ring, the catalogue as one LOUDS
// catalog envelope (see internal/catalog) and a CRC. The same bytes
// are what a steward sends a joining or resynchronizing daemon in
// HELLO and RESYNC, so the whole-overlay state has one byte form, one
// encoder and one parser. Files are memory-mapped at load so a cold
// restart materializes entries lazily while streaming them into the
// overlay. Nothing writes the older encodings any more, but both
// still parse: version-1 images (inline node list) and version-2
// images whose envelope is legacy-coded.
//
// Journal appends ride the OS cache; a Replicate tick is the
// durability point. A tick writes a new image only when the journal
// cannot carry it (JournalCarries: the ring differs from the newest
// image's, an append failed, or the records journaled since the image
// reach a quarter of its keys; the caller adds what only it knows, a
// catalogue that changed without a record); otherwise the tick fsyncs
// the journal (SyncJournal), and the newest image plus its journal
// replay to the same state. The durability contract is therefore
// exactly the paper's replication model: everything declared before the
// last Replicate survives any crash, and journaled mutations after it
// survive ordinary process death (but not power loss).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dlpt/internal/catalog"
)

// PeerState is one persisted ring member.
type PeerState struct {
	ID       string
	Capacity int
}

// Record is one journaled catalogue mutation.
type Record struct {
	// Remove distinguishes an unregister from a register.
	Remove bool
	Key    string
	Value  string
}

// Snapshot is one parsed overlay image: the peer ring and the
// catalogue of replicated data nodes (key and values). Structural
// (dataless) tree nodes are not part of it — the canonical PGCP
// structure over the data keys is derivable, and the restore path
// rebuilds it by anti-entropy. The catalogue of a version-2 image
// stays in its encoded form, aliasing the parsed bytes, until Ascend
// walks it.
type Snapshot struct {
	Seq   uint64
	Peers []PeerState

	view  *catalog.View
	nodes []catalog.Entry // version-1 image: decoded eagerly
}

// Ascend streams the catalogue in ascending key order, materializing
// one entry at a time — for a mapped snapshot this is the lazy
// cold-restart path: entries (and the pages that spell them) are
// touched only as the walk reaches them.
func (sn *Snapshot) Ascend(yield func(catalog.Entry) bool) error {
	if sn.view != nil {
		return sn.view.Ascend(yield)
	}
	for _, e := range sn.nodes {
		if !yield(e) {
			break
		}
	}
	return nil
}

// LoadedState is what Load recovered from disk: the newest valid
// snapshot (nil when none exists yet) and the journal records of that
// epoch and every later one, in append order. Call Release when done
// restoring — a version-2 snapshot aliases a memory-mapped file until
// then.
type LoadedState struct {
	Snapshot *Snapshot
	Journal  []Record

	release func()
}

// Release unmaps the snapshot file backing a lazily loaded
// catalogue. The Snapshot must not be iterated afterwards; all
// strings already materialized are copies and stay valid. Safe to
// call on any LoadedState, more than once.
func (st *LoadedState) Release() {
	if st.release != nil {
		st.release()
		st.release = nil
	}
	if st.Snapshot != nil {
		st.Snapshot.view = nil
	}
}

const (
	snapMagic = "DLPTSNP1"
	// snapVersionNodes is the original inline node-list snapshot
	// format; snapVersionCatalog carries the catalogue as one
	// self-describing catalog envelope instead. Both load.
	snapVersionNodes   = 1
	snapVersionCatalog = 2
	snapSuffix         = ".snap"
	snapPrefix         = "snapshot-"
	jrnlPrefix         = "journal-"
	jrnlSuffix         = ".log"
)

// keepSnapshots is how many snapshot epochs survive pruning: the
// newest plus one fallback for torn writes.
const keepSnapshots = 2

// Store is one persistence directory. All methods are safe for
// concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	seq     uint64 // current epoch: newest snapshot or rotated journal
	journal *os.File
	closed  bool
	// appendErr records the first journal-append failure of the
	// current epoch so it cannot pass silently: the next snapshot
	// surfaces it (the snapshot itself heals the gap — the lost
	// records described state the new snapshot now contains).
	appendErr error
	// records counts the appends since the newest BeginSnapshot; image
	// is the ring and key count of the newest image this store
	// committed, nil until one commits and while a newer epoch's image
	// is pending. buf is the one buffer Append encodes into.
	records int
	image   *imageState
	buf     []byte
}

// imageState is what JournalCarries compares a tick against: the ring
// and catalogue size of the newest committed image.
type imageState struct {
	peers []PeerState
	keys  int
}

// journalShare bounds the journal as a share of the newest image's
// keys: once the records since the image reach a quarter of them, the
// next tick writes a new image, so what a restart replays on top of an
// image stays about that size.
const journalShare = 4

// Open creates or reopens the persistence directory. The journal of
// the newest epoch is opened for appending, so a reopened store
// continues the epoch it was closed in. The newest epoch is the
// maximum over snapshots AND journals: a crash between BeginSnapshot
// (which rotates the journal) and Commit (which writes the snapshot
// file) leaves a journal one epoch ahead of the snapshots, and new
// records must keep appending there — appending to an older epoch
// would scramble replay order.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: dir}
	seqs, err := s.snapshotSeqs()
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		s.seq = seqs[len(seqs)-1]
	}
	jseqs, err := s.journalSeqs()
	if err != nil {
		return nil, err
	}
	if len(jseqs) > 0 && jseqs[len(jseqs)-1] > s.seq {
		s.seq = jseqs[len(jseqs)-1]
	}
	if err := s.openJournalLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the persistence directory path.
func (s *Store) Dir() string { return s.dir }

// Close releases the journal handle. The store's files stay on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}

// snapshotSeqs lists the epochs that have a snapshot file, ascending.
func (s *Store) snapshotSeqs() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if len(name) <= len(snapPrefix)+len(snapSuffix) ||
			name[:len(snapPrefix)] != snapPrefix ||
			name[len(name)-len(snapSuffix):] != snapSuffix {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, snapPrefix+"%d"+snapSuffix, &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// journalSeqs lists the epochs that have a journal file, ascending.
func (s *Store) journalSeqs() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		if _, err := fmt.Sscanf(name, jrnlPrefix+"%d"+jrnlSuffix, &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (s *Store) snapPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%d%s", snapPrefix, seq, snapSuffix))
}

func (s *Store) jrnlPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%d%s", jrnlPrefix, seq, jrnlSuffix))
}

// openJournalLocked (re)opens the current epoch's journal for append,
// first truncating any torn tail left by a crash mid-append: records
// appended after corrupt bytes would be unreachable to replay (it
// stops at the first bad record), so they must never exist.
func (s *Store) openJournalLocked() error {
	path := s.jrnlPath(s.seq)
	if err := truncateTornTail(path); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	s.journal = f
	return nil
}

// truncateTornTail cuts a journal file back to its longest valid
// record prefix. Missing files are fine.
func truncateTornTail(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	valid := int64(0)
	hdr := make([]byte, 4)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			break
		}
		n := binary.BigEndian.Uint32(hdr)
		if n > 1<<24 {
			break
		}
		body := make([]byte, n+4)
		if _, err := io.ReadFull(f, body); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body[:n]) != binary.BigEndian.Uint32(body[n:]) {
			break
		}
		valid += int64(4 + len(body))
	}
	info, err := f.Stat()
	f.Close()
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if info.Size() > valid {
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	return nil
}

// Append journals one catalogue mutation into the current epoch.
func (s *Store) Append(remove bool, key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.journal == nil {
		return errors.New("persist: store closed")
	}
	op := byte(0)
	if remove {
		op = 1
	}
	// The frame is length, payload, CRC, encoded in place into the
	// store's buffer: a durable write allocates nothing here.
	frame := append(s.buf[:0], 0, 0, 0, 0, op)
	frame = appendString(frame, key)
	frame = appendString(frame, value)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
	s.buf = frame
	_, err := s.journal.Write(frame)
	if err != nil && s.appendErr == nil {
		s.appendErr = err
	}
	s.records++
	return err
}

// JournalCarries reports whether the journal can make a replication
// tick durable without a new image: an image committed by this store is
// the newest epoch's, no append has failed since, sameRing confirms the
// overlay's ring is still the image's (ids and capacities, which the
// journal does not record), and the records journaled since stay under
// a quarter of the image's keys. The caller fsyncs the journal
// (SyncJournal) instead of writing an image only on true.
func (s *Store) JournalCarries(sameRing func([]PeerState) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := s.image
	return img != nil && !s.closed && s.appendErr == nil &&
		(s.records == 0 || journalShare*s.records < img.keys) && sameRing(img.peers)
}

// SyncJournal fsyncs the current epoch's journal: the durability point
// of a replication tick that writes no image. No store-wide lock is held
// during the fsync, so concurrent appends proceed; if a snapshot rotates
// the journal meanwhile, the rotated file is synced by name.
func (s *Store) SyncJournal() error {
	s.mu.Lock()
	f, path := s.journal, s.jrnlPath(s.seq)
	s.mu.Unlock()
	if f == nil {
		return errors.New("persist: store closed")
	}
	err := f.Sync()
	if errors.Is(err, os.ErrClosed) {
		err = syncFile(path)
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// EntrySource is a sorted stream of catalogue entries — what an
// image encodes. The core's copy-on-write capture is the one product
// code has.
type EntrySource interface {
	Len() int
	Ascend(yield func(catalog.Entry) bool)
}

// AppendImage appends the overlay image of (peers, cat) to dst: the
// one byte form of the whole-overlay state, written to snapshot files
// by Commit and carried by the daemon's HELLO and RESYNC payloads.
// seq is the snapshot epoch on disk and unused on the wire.
func AppendImage(dst []byte, seq uint64, peers []PeerState, cat EntrySource) []byte {
	start := len(dst)
	dst = append(dst, snapMagic...)
	dst = binary.AppendUvarint(dst, snapVersionCatalog)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(peers)))
	for _, ps := range peers {
		dst = appendString(dst, ps.ID)
		dst = binary.AppendUvarint(dst, uint64(ps.Capacity))
	}
	entries := make([]catalog.Entry, 0, cat.Len())
	cat.Ascend(func(e catalog.Entry) bool {
		entries = append(entries, e)
		return true
	})
	blob := catalog.Append(nil, catalog.Default, entries, catalog.SecValues)
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	dst = append(dst, blob...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// PendingSnapshot is an epoch allocated by BeginSnapshot whose
// snapshot file has not been written yet. Exactly one Commit (or
// none, if the process dies — recovery handles that) must follow.
type PendingSnapshot struct {
	s   *Store
	seq uint64
	// healErr is the superseded epoch's first journal-append failure,
	// surfaced by Commit.
	healErr error
	bytes   int
}

// Seq returns the epoch this snapshot will commit as.
func (p *PendingSnapshot) Seq() uint64 { return p.seq }

// Bytes returns the encoded snapshot size after Commit.
func (p *PendingSnapshot) Bytes() int { return p.bytes }

// BeginSnapshot allocates the next epoch and rotates the journal —
// the only part of a snapshot that must be atomic with the caller's
// state capture, so this is the only part the caller runs under its
// cluster write lock. Everything that scales with catalogue size
// (encode, write, fsync) happens in Commit, off the lock. Mutations
// journaled between Begin and Commit land in the new epoch's journal
// and replay on top of the committed snapshot; if the process dies
// before Commit, Load falls back one epoch and replays both
// journals.
func (s *Store) BeginSnapshot() (*PendingSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("persist: store closed")
	}
	seq := s.seq + 1
	if s.journal != nil {
		_ = s.journal.Close()
	}
	s.seq = seq
	s.records, s.image = 0, nil
	if err := s.openJournalLocked(); err != nil {
		return nil, err
	}
	p := &PendingSnapshot{s: s, seq: seq, healErr: s.appendErr}
	s.appendErr = nil
	return p, nil
}

// Commit encodes and durably writes the snapshot allocated by
// BeginSnapshot: temp file, fsync, rename, directory fsync, then
// pruning of epochs older than the fallback. No store-wide lock is
// held while encoding or syncing, so concurrent journal appends
// proceed. It returns the committed epoch number.
func (p *PendingSnapshot) Commit(peers []PeerState, cat EntrySource) (uint64, error) {
	s := p.s
	buf := AppendImage(nil, p.seq, peers, cat)
	p.bytes = len(buf)

	tmp := s.snapPath(p.seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, s.snapPath(p.seq)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: %w", err)
	}
	syncDir(s.dir)

	s.mu.Lock()
	if p.seq == s.seq {
		s.image = &imageState{peers: peers, keys: cat.Len()}
	}
	s.pruneLocked()
	s.mu.Unlock()
	if p.healErr != nil {
		// Surface the superseded epoch's journal failures rather than
		// letting them pass silently; the snapshot just written
		// contains the state the lost records described, so durability
		// is whole again from here on.
		return p.seq, fmt.Errorf(
			"persist: journal appends failed during the previous epoch (state healed by snapshot %d): %w",
			p.seq, p.healErr)
	}
	return p.seq, nil
}

// pruneLocked removes snapshots (and their journals) older than the
// keepSnapshots newest epochs.
func (s *Store) pruneLocked() {
	seqs, err := s.snapshotSeqs()
	if err != nil || len(seqs) <= keepSnapshots {
		return
	}
	for _, seq := range seqs[:len(seqs)-keepSnapshots] {
		os.Remove(s.snapPath(seq))
		os.Remove(s.jrnlPath(seq))
	}
}

// Load recovers the persisted state: the newest snapshot whose CRC
// verifies, plus the journals of its epoch and all later epochs in
// order, each replayed until its first truncated or corrupt record.
// A directory with no valid snapshot yields a nil Snapshot and only
// epoch-0 journal records.
func (s *Store) Load() (*LoadedState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs, err := s.snapshotSeqs()
	if err != nil {
		return nil, err
	}
	st := &LoadedState{}
	var base uint64
	for i := len(seqs) - 1; i >= 0; i-- {
		snap, release, err := loadSnapshot(s.snapPath(seqs[i]))
		if err != nil {
			continue // corrupt or torn: fall back one epoch
		}
		st.Snapshot = snap
		st.release = release
		base = snap.Seq
		break
	}
	// Every journal of the base epoch and later, ascending.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var jseqs []uint64
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		if _, err := fmt.Sscanf(name, jrnlPrefix+"%d"+jrnlSuffix, &seq); err != nil {
			continue
		}
		if seq >= base {
			jseqs = append(jseqs, seq)
		}
	}
	sort.Slice(jseqs, func(i, j int) bool { return jseqs[i] < jseqs[j] })
	for _, seq := range jseqs {
		recs, err := readJournal(s.jrnlPath(seq))
		if err != nil {
			return nil, err
		}
		st.Journal = append(st.Journal, recs...)
	}
	return st, nil
}

// loadSnapshot memory-maps and parses one snapshot file. The
// catalogue stays in the mapping behind a lazy catalog view; the
// returned release function unmaps it.
func loadSnapshot(path string) (*Snapshot, func(), error) {
	buf, release, err := mapFile(path)
	if err != nil {
		return nil, nil, err
	}
	snap, err := ParseImage(buf)
	if err != nil {
		release()
		return nil, nil, err
	}
	return snap, release, nil
}

// ParseImage CRC-verifies and parses an overlay image: what
// AppendImage wrote, or either encoding older builds left on disk.
// The bytes come from a file or from another process, so every count
// is checked against the bytes that remain before anything is
// allocated from it. The returned Snapshot aliases buf until its
// catalogue has been walked.
func ParseImage(buf []byte) (*Snapshot, error) {
	if len(buf) < len(snapMagic)+4 || string(buf[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("persist: bad snapshot magic")
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, errors.New("persist: snapshot checksum mismatch")
	}
	p := body[len(snapMagic):]
	version, p, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	if version != snapVersionNodes && version != snapVersionCatalog {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d", version)
	}
	snap := &Snapshot{}
	if snap.Seq, p, err = getUvarint(p); err != nil {
		return nil, err
	}
	var n, v uint64
	if n, p, err = getCount(p); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var ps PeerState
		if ps.ID, p, err = getString(p); err != nil {
			return nil, err
		}
		if v, p, err = getUvarint(p); err != nil {
			return nil, err
		}
		ps.Capacity = int(v)
		snap.Peers = append(snap.Peers, ps)
	}
	if version == snapVersionCatalog {
		if n, p, err = getCount(p); err != nil {
			return nil, err
		}
		if snap.view, err = catalog.NewView(p[:n]); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		return snap, nil
	}
	if n, p, err = getCount(p); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var e catalog.Entry
		if e.Key, p, err = getString(p); err != nil {
			return nil, err
		}
		if v, p, err = getCount(p); err != nil {
			return nil, err
		}
		for j := uint64(0); j < v; j++ {
			var s string
			if s, p, err = getString(p); err != nil {
				return nil, err
			}
			e.Values = append(e.Values, s)
		}
		snap.nodes = append(snap.nodes, e)
	}
	return snap, nil
}

// readJournal replays one journal file until EOF or the first record
// that is truncated or fails its CRC (the torn tail of a crash).
func readJournal(path string) ([]Record, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	var out []Record
	hdr := make([]byte, 4)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return out, nil // clean EOF or torn header: stop
		}
		n := binary.BigEndian.Uint32(hdr)
		if n > 1<<24 {
			return out, nil // implausible length: corrupt tail
		}
		body := make([]byte, n+4)
		if _, err := io.ReadFull(f, body); err != nil {
			return out, nil // torn record
		}
		payload, tail := body[:n], body[n:]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(tail) {
			return out, nil // corrupt record: stop replay here
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return out, nil
		}
		out = append(out, rec)
	}
}

func decodeRecord(p []byte) (Record, error) {
	var rec Record
	if len(p) < 1 {
		return rec, errors.New("persist: empty record")
	}
	rec.Remove = p[0] == 1
	p = p[1:]
	var err error
	if rec.Key, p, err = getString(p); err != nil {
		return rec, err
	}
	if rec.Value, _, err = getString(p); err != nil {
		return rec, err
	}
	return rec, nil
}

// --- encoding helpers --------------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func getUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errors.New("persist: truncated varint")
	}
	return v, p[n:], nil
}

// getCount reads a count or length field and refuses one the
// remaining bytes cannot hold — every counted item costs at least a
// byte — so a forged field never drives a loop or an allocation.
func getCount(p []byte) (uint64, []byte, error) {
	n, p, err := getUvarint(p)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(p)) {
		return 0, nil, errors.New("persist: count or length exceeds the remaining bytes")
	}
	return n, p, nil
}

func getString(p []byte) (string, []byte, error) {
	n, p, err := getCount(p)
	if err != nil {
		return "", nil, err
	}
	return string(p[:n]), p[n:], nil
}

// syncFile opens the file at path and fsyncs it.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

// syncDir fsyncs a directory so a rename is durable; best effort on
// platforms where directories cannot be synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
