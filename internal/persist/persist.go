// Package persist is the durability layer of the fault-tolerance
// subsystem: it serializes the overlay's replica state to disk so a
// cold restart — every peer dead, including the last one — can
// rebuild the tree from the persistence directory.
//
// The directory holds versioned snapshot files and one append-only
// journal per snapshot epoch:
//
//	snapshot-<seq>.snap — the peer ring (ids and capacities) and every
//	                      replicated data node (key and values) at one
//	                      Replicate tick: one overlay image (AppendImage),
//	                      written to a temp file, fsynced and renamed.
//	journal-<seq>.log   — every catalogue mutation (register /
//	                      unregister) since snapshot <seq>, and every
//	                      ring a tick ran on that differs from the one
//	                      before, one CRC-framed record each, in order;
//	                      a zero length ends it.
//
// Snapshot writing is split in two so the expensive half runs off the
// cluster write lock: BeginSnapshot rotates the journal under it, and
// Commit encodes, writes and fsyncs with no store-wide lock held. The
// journal is the image's delta: where the previous image is this
// store's and its journal took every append, Commit folds the two
// (Fold, one level of a log-structured merge) into the next image, so
// the caller captures no catalogue under its lock.
//
// Load walks the snapshots newest-first until one passes its CRC, then
// replays every journal of that epoch and later, each up to its first
// torn record or zero length: a torn write costs at most the tail of a
// journal, and the two newest snapshots are kept so a torn snapshot
// falls back one epoch. A snapshot or record that passes its CRC but
// does not parse fails Load instead (ImageError, RecordError).
//
// An image is also what a steward sends a joining or resynchronizing
// daemon in HELLO and RESYNC: the whole-overlay state has one byte form,
// one encoder and one parser. Snapshot files are memory-mapped, so a
// cold restart materializes entries as it streams them into the
// overlay. Version-1 images (inline node list) and version-2 images
// with a legacy-coded envelope still parse; nothing writes them. The
// journal format is upgrade-only: a build older than the ring record
// reads one as a registration, or stops there, and one older than the
// mapped tail refuses a journal a crash left with its zeroed tail.
//
// A journal append is a copy into a shared mapping of a preallocated
// window of the file (see journal): no system call. Appends ride the OS
// cache; a Replicate tick is the durability point: it writes a new
// image only when the journal cannot carry it (JournalCarries), and
// otherwise fsyncs the journal (SyncJournal). The durability contract
// is therefore the paper's replication model: everything declared
// before the last Replicate survives any crash, and journaled mutations
// after it survive ordinary process death (but not power loss).
package persist

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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
	// Peers is the newest ring: the snapshot's, or the last ring record
	// journaled after it.
	Peers []PeerState

	release func()
	strs    *catalog.Arena // the journal's strings; nil: one allocation each
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

// The kinds of journal record, the first byte of each payload.
const (
	opRegister   = 0
	opUnregister = 1
	opRing       = 2
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
	journal *journal
	closed  bool
	// appendErr records the first journal-append failure of the
	// current epoch so it cannot pass silently: the next snapshot
	// surfaces it (the snapshot itself heals the gap — the lost
	// records described state the new snapshot now contains).
	appendErr error
	// records counts the records since the newest BeginSnapshot, a ring
	// record once per peer, and size is the epoch's journal length;
	// image is the key count of the newest image this store committed
	// and the ring the journal carries, nil until one commits and while
	// a newer epoch's image is pending. buf is the one buffer appends
	// encode into.
	records int
	size    int64
	image   *imageState
	buf     []byte
}

// imageState is what JournalCarries compares a tick against: the
// newest committed image's catalogue size, and its ring or the one a
// ring record journaled since.
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
	for _, kind := range [][2]string{{snapPrefix, snapSuffix}, {jrnlPrefix, jrnlSuffix}} {
		seqs, err := s.epochs(kind[0], kind[1])
		if err != nil {
			return nil, err
		}
		if len(seqs) > 0 {
			s.seq = max(s.seq, seqs[len(seqs)-1])
		}
	}
	if err := s.openJournalLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close cuts the journal back to its records and releases it. The
// store's files stay on disk.
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

// epochs lists the epochs that have a file named prefix<epoch>suffix,
// ascending.
func (s *Store) epochs(prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		mid, pre := strings.CutPrefix(e.Name(), prefix)
		mid, suf := strings.CutSuffix(mid, suffix)
		if seq, err := strconv.ParseUint(mid, 10, 64); pre && suf && err == nil {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}

func (s *Store) snapPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%d%s", snapPrefix, seq, snapSuffix))
}

func (s *Store) jrnlPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%d%s", jrnlPrefix, seq, jrnlSuffix))
}

// openJournalLocked (re)opens the current epoch's journal for append
// after its valid prefix, cutting off the torn tail or zeroed window a
// crash left: records appended after corrupt bytes would be unreachable
// to replay (it stops at the first bad record), so they must never
// exist.
func (s *Store) openJournalLocked() error {
	path := s.jrnlPath(s.seq)
	valid, err := scanJournal(path, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	if s.journal, err = openJournal(path, valid); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	s.size = valid
	return nil
}

// Append journals one catalogue mutation into the current epoch.
func (s *Store) Append(remove bool, key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := byte(opRegister)
	if remove {
		op = opUnregister
	}
	frame := catalog.AppendString(append(s.buf[:0], 0, 0, 0, 0, op), key)
	return s.writeFrameLocked(catalog.AppendString(frame, value))
}

// writeFrameLocked appends one record to the current epoch's journal.
// frame is four placeholder bytes and the payload, encoded into the
// store's buffer; the length and the CRC are filled in place, so a
// durable write allocates nothing here.
func (s *Store) writeFrameLocked(frame []byte) error {
	if s.closed || s.journal == nil {
		return errors.New("persist: store closed")
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
	s.buf = frame
	err := s.journal.append(frame)
	if err != nil && s.appendErr == nil {
		s.appendErr = err
	}
	s.records, s.size = s.records+1, s.size+int64(len(frame))
	return err
}

// JournalCarries reports whether the journal can make a replication
// tick durable without a new image: an image committed by this store is
// the newest epoch's, no append has failed since, and the records
// journaled since stay under a quarter of the image's keys. peers is
// the tick's ring, ids and capacities in ring order: where it differs
// from the ring the journal carries, JournalCarries appends a ring
// record, which counts as one record per peer (at least one), and
// answers false if that append fails. The caller fsyncs the journal
// (SyncJournal) instead of writing an image only on true, and must not
// modify peers afterwards.
func (s *Store) JournalCarries(peers []PeerState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := s.image
	if img == nil || s.closed || s.appendErr != nil || s.records > 0 && journalShare*s.records >= img.keys {
		return false
	}
	if !slices.Equal(img.peers, peers) {
		frame := AppendImage(append(s.buf[:0], 0, 0, 0, 0, opRing), s.seq, peers, noEntries{})
		if s.writeFrameLocked(frame) != nil {
			return false
		}
		img.peers, s.records = peers, s.records+max(len(peers), 1)-1 // one record per peer
	}
	return true
}

// SyncJournal fsyncs the current epoch's journal: the durability point
// of a replication tick that writes no image. No store-wide lock is held
// during the fsync, so concurrent appends proceed; if a snapshot rotates
// the journal meanwhile, the rotated file is synced by name.
func (s *Store) SyncJournal() error {
	s.mu.Lock()
	j, path := s.journal, s.jrnlPath(s.seq)
	s.mu.Unlock()
	if j == nil {
		return errors.New("persist: store closed")
	}
	err := j.f.Sync()
	if errors.Is(err, os.ErrClosed) {
		err = syncPath(path)
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// EntrySource is a sorted stream of catalogue entries — what an
// image encodes: the tree's catalogue at a capture, or a Fold. The
// encoder walks it several times, and an entry's Values may be the
// source's buffer, reused once yield returns.
type EntrySource interface {
	Ascend(yield func(catalog.Entry) bool)
}

// Fold is the catalogue an image and the journal records after it
// replay to, as a sorted EntrySource: one level of a log-structured
// merge. The records, ordered by key and journal position, merge into every walk of the
// image, each key's applied in journal order; a key left with no value
// is dropped, as replay leaves it. Nothing of the whole catalogue is
// built; Err reports an image that could not be walked.
type Fold struct {
	img  *Snapshot
	recs []Record
	vals []string // the values of the key being yielded, records applied
	err  error
}

// NewFold folds records, in journal order, into img's catalogue (nil:
// an empty one).
func NewFold(img *Snapshot, records []Record) *Fold {
	// Sort the records' positions, by key and then position, and gather:
	// cheaper than a stable sort moving the records themselves.
	pos := make([]int32, len(records))
	for i := range pos {
		pos[i] = int32(i)
	}
	slices.SortFunc(pos, func(a, b int32) int {
		return cmp.Or(strings.Compare(records[a].Key, records[b].Key), cmp.Compare(a, b))
	})
	recs := make([]Record, len(records))
	for i, p := range pos {
		recs[i] = records[p]
	}
	return &Fold{img: img, recs: recs}
}

// Err returns the error that stopped the last walk, if any.
func (f *Fold) Err() error { return f.err }

// Ascend yields the folded catalogue in ascending key order.
func (f *Fold) Ascend(yield func(catalog.Entry) bool) {
	recs, more := f.recs, true
	// emit yields key with the records at the head of recs that name it
	// applied to vals, unless that leaves it none.
	emit := func(key string, vals []string) bool {
		if len(recs) == 0 || recs[0].Key != key {
			return yield(catalog.Entry{Key: key, Values: vals})
		}
		vals = append(f.vals[:0], vals...)
		for ; len(recs) > 0 && recs[0].Key == key; recs = recs[1:] {
			switch i, found := slices.BinarySearch(vals, recs[0].Value); {
			case recs[0].Remove && found:
				vals = slices.Delete(vals, i, i+1)
			case !recs[0].Remove && !found:
				vals = slices.Insert(vals, i, recs[0].Value)
			}
		}
		f.vals = vals
		return len(vals) == 0 || yield(catalog.Entry{Key: key, Values: vals})
	}
	f.err = nil
	if f.img != nil {
		walk := f.img.Ascend
		if f.img.view != nil {
			walk = f.img.view.Walk // keeps no values and few keys
		}
		f.err = walk(func(e catalog.Entry) bool {
			for more && len(recs) > 0 && recs[0].Key < e.Key {
				more = emit(recs[0].Key, nil)
			}
			more = more && emit(e.Key, e.Values)
			return more
		})
	}
	for more && f.err == nil && len(recs) > 0 {
		more = emit(recs[0].Key, nil)
	}
}

// AppendImage appends the overlay image of (peers, cat) to dst: the
// one byte form of the whole-overlay state, written to snapshot files
// by Commit and carried by the daemon's HELLO and RESYNC payloads.
// seq is the snapshot epoch on disk and unused on the wire. The
// catalogue is encoded from cat straight into dst (catalog.AppendSeq).
func AppendImage(dst []byte, seq uint64, peers []PeerState, cat EntrySource) []byte {
	start := len(dst)
	dst = append(dst, snapMagic...)
	dst = binary.AppendUvarint(dst, snapVersionCatalog)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(peers)))
	for _, ps := range peers {
		dst = catalog.AppendString(dst, ps.ID)
		dst = binary.AppendUvarint(dst, uint64(ps.Capacity))
	}
	dst = catalog.AppendPrefixed(dst, func(b []byte) []byte {
		return catalog.AppendSeq(b, cat.Ascend, catalog.SecValues)
	})
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// noEntries is the empty catalogue of a ring record.
type noEntries struct{}

func (noEntries) Ascend(func(catalog.Entry) bool) {}

// PendingSnapshot is an epoch allocated by BeginSnapshot whose
// snapshot file has not been written yet. Exactly one Commit (or
// none, if the process dies — recovery handles that) must follow.
type PendingSnapshot struct {
	s   *Store
	seq uint64
	// rotated is the superseded epoch's journal, which takes no more
	// appends; Commit cuts it back to its records and closes it.
	rotated *journal
	// healErr is the superseded epoch's first journal-append failure,
	// surfaced by Commit.
	healErr error
	// folds is set when the superseded epoch's image is one this store
	// committed and its journal took every append: the two fold to this
	// snapshot.
	folds bool
	bytes int
	keys  int
}

// Seq returns the epoch this snapshot will commit as.
func (p *PendingSnapshot) Seq() uint64 { return p.seq }

// Folds reports whether Commit can fold the previous image with the
// rotated journal, so the caller need not capture a catalogue.
func (p *PendingSnapshot) Folds() bool { return p.folds }

// Bytes returns the encoded snapshot size after Commit.
func (p *PendingSnapshot) Bytes() int { return p.bytes }

// Keys returns the committed snapshot's key count after Commit.
func (p *PendingSnapshot) Keys() int { return p.keys }

// BeginSnapshot allocates the next epoch and rotates the journal —
// the only part of a snapshot that must be atomic with the caller's
// state capture, so this is the only part the caller runs under its
// cluster write lock. Everything that scales with catalogue size
// (encode, write, fsync), and the cut of the rotated journal back to its
// records, happens in Commit, off the lock. Mutations journaled between
// Begin and Commit land in the new epoch's journal and replay on top of
// the committed snapshot; if the process dies before Commit, Load falls
// back one epoch and replays both journals (the rotated one ends at its
// zeroed tail).
func (s *Store) BeginSnapshot() (*PendingSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("persist: store closed")
	}
	p := &PendingSnapshot{s: s, seq: s.seq + 1, rotated: s.journal, healErr: s.appendErr,
		folds: s.image != nil && s.appendErr == nil}
	s.seq, s.journal = p.seq, nil
	s.records, s.image = 0, nil
	if err := s.openJournalLocked(); err != nil {
		if p.rotated != nil {
			err = errors.Join(err, p.rotated.Close())
		}
		return nil, err
	}
	s.appendErr = nil
	return p, nil
}

// Commit encodes and durably writes the snapshot allocated by
// BeginSnapshot: temp file, fsync, rename, directory fsync, then
// pruning of epochs older than the fallback. First it cuts the rotated
// journal back to its records and closes it; a failure there joins
// Commit's error. cat is the catalogue captured with BeginSnapshot, or
// nil where Folds: the previous image folded with the rotated journal.
// Pruning runs after the rename and keeps the two newest images, so the
// previous one outlives the fold unless two later snapshots commit
// during it. No store-wide lock is held while folding, encoding or
// syncing, so concurrent journal appends proceed. It returns the
// committed epoch number.
func (p *PendingSnapshot) Commit(peers []PeerState, cat EntrySource) (uint64, error) {
	s := p.s
	var closeErr error
	if p.rotated != nil {
		if err := p.rotated.Close(); err != nil {
			closeErr = fmt.Errorf("persist: closing the rotated journal: %w", err)
		}
	}
	if cat == nil {
		if !p.folds {
			return 0, errors.Join(errors.New("persist: no catalogue to commit and no image to fold"), closeErr)
		}
		fold, release, err := s.openFold(p.seq-1, -1)
		if err != nil {
			return 0, errors.Join(err, closeErr)
		}
		defer release()
		cat = fold
	}
	count := &counter{EntrySource: cat}
	buf := AppendImage(nil, p.seq, peers, count)
	if fold, ok := cat.(*Fold); ok && fold.Err() != nil {
		return 0, errors.Join(fmt.Errorf("persist: folding image %d: %w", p.seq-1, fold.Err()), closeErr)
	}
	p.bytes, p.keys = len(buf), count.n

	tmp := s.snapPath(p.seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(buf)
		err = errors.Join(err, f.Sync(), f.Close())
	}
	if err == nil {
		err = os.Rename(tmp, s.snapPath(p.seq))
	}
	if err != nil {
		os.Remove(tmp)
		return 0, errors.Join(fmt.Errorf("persist: %w", err), closeErr)
	}
	_ = syncPath(s.dir) // best effort where directories cannot be synced

	s.mu.Lock()
	if p.seq == s.seq {
		s.image = &imageState{peers: peers, keys: p.keys}
	}
	s.pruneLocked()
	s.mu.Unlock()
	if p.healErr != nil {
		// Surface the superseded epoch's journal failures rather than
		// letting them pass silently; the snapshot just written
		// contains the state the lost records described, so durability
		// is whole again from here on.
		return p.seq, errors.Join(fmt.Errorf(
			"persist: journal appends failed during the previous epoch (state healed by snapshot %d): %w",
			p.seq, p.healErr), closeErr)
	}
	return p.seq, closeErr
}

// pruneLocked removes snapshots (and their journals) older than the
// keepSnapshots newest epochs.
func (s *Store) pruneLocked() {
	seqs, err := s.epochs(snapPrefix, snapSuffix)
	if err != nil || len(seqs) <= keepSnapshots {
		return
	}
	for _, seq := range seqs[:len(seqs)-keepSnapshots] {
		os.Remove(s.snapPath(seq))
		os.Remove(s.jrnlPath(seq))
	}
}

// openFold opens the image of epoch seq, which this store committed,
// and the first size bytes of its journal (all of it if size < 0) as a
// Fold; release unmaps the image once the fold's last walk is done.
func (s *Store) openFold(seq uint64, size int64) (*Fold, func(), error) {
	img, release, err := loadSnapshot(s.snapPath(seq))
	if err != nil {
		return nil, nil, err
	}
	// The records live as long as the fold: their strings share chunks.
	st, end := &LoadedState{strs: &catalog.Arena{}}, int64(0)
	if _, err = scanJournal(s.jrnlPath(seq), func(p []byte) error {
		if end += int64(len(p)) + 8; size >= 0 && end > size {
			return nil // appended after the capture
		}
		return st.replay(p)
	}); err != nil {
		release()
		return nil, nil, err
	}
	return NewFold(img, st.Journal), release, nil
}

// Mirror is what Image folds: the newest image this store committed and
// the records its journal held at the capture.
type Mirror struct {
	s    *Store
	seq  uint64
	size int64
}

// Mirror captures the newest image this store committed and the length
// of the journal after it, under the caller's lock that serializes the
// appends; Image folds them off it. It returns nil where there is no
// such image (none committed, or a newer one pending) or an append
// failed since: the caller builds the catalogue itself.
func (s *Store) Mirror() *Mirror {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.image == nil || s.appendErr != nil || s.closed {
		return nil
	}
	return &Mirror{s: s, seq: s.seq, size: s.size}
}

// Image appends the overlay image of peers and the captured image's
// fold with the captured records to dst. It fails where two snapshots
// committed since Mirror and pruned the image, or where the image or the
// journal does not read back; then, if no snapshot committed since, the
// store stops folding that image: the next tick writes one from the
// tree (JournalCarries and Mirror refuse, BeginSnapshot does not fold).
func (m *Mirror) Image(dst []byte, peers []PeerState) ([]byte, error) {
	fold, release, err := m.s.openFold(m.seq, m.size)
	if err == nil {
		defer release()
		dst = AppendImage(dst, 0, peers, fold)
		err = fold.Err()
	}
	if err != nil {
		m.s.mu.Lock()
		if m.s.seq == m.seq {
			m.s.image = nil
		}
		m.s.mu.Unlock()
	}
	return dst, err
}

// counter counts the entries of its source's last walk.
type counter struct {
	EntrySource
	n int
}

func (c *counter) Ascend(yield func(catalog.Entry) bool) {
	c.n = 0
	c.EntrySource.Ascend(func(e catalog.Entry) bool { c.n++; return yield(e) })
}

// Load recovers the persisted state: the newest snapshot whose CRC
// verifies, plus the journals of its epoch and all later epochs in
// order, each replayed until its first truncated or corrupt record, and
// the newest ring among the snapshot's and the ring records after it.
// A snapshot whose CRC verifies but which does not parse fails Load
// with an *ImageError, and a record that passes its CRC but does not
// decode with a *RecordError. A directory with no valid snapshot yields
// a nil Snapshot and only epoch-0 journal records.
func (s *Store) Load() (*LoadedState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs, err := s.epochs(snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	st := &LoadedState{}
	var base uint64
	for i := len(seqs) - 1; i >= 0; i-- {
		snap, release, err := loadSnapshot(s.snapPath(seqs[i]))
		if _, bad := err.(*ImageError); bad {
			return nil, err
		}
		if err != nil {
			continue // torn: fall back one epoch
		}
		st.Snapshot, st.Peers = snap, snap.Peers
		st.release = release
		base = snap.Seq
		break
	}
	jseqs, err := s.epochs(jrnlPrefix, jrnlSuffix)
	for _, seq := range jseqs {
		if err == nil && seq >= base {
			_, err = scanJournal(s.jrnlPath(seq), st.replay)
		}
	}
	if err != nil {
		st.Release()
		return nil, err
	}
	return st, nil
}

// loadSnapshot memory-maps and parses one snapshot file. The
// catalogue stays in the mapping behind a lazy catalog view; the
// returned release function unmaps it. A file whose CRC verifies but
// which does not parse is an *ImageError; anything else that fails is
// a torn write.
func loadSnapshot(path string) (*Snapshot, func(), error) {
	buf, release, err := mapFile(path)
	if err != nil {
		return nil, nil, err
	}
	snap, err := ParseImage(buf)
	if err != nil {
		release()
		if !errors.Is(err, errImageMagic) && !errors.Is(err, errImageCRC) {
			err = &ImageError{Path: path, Err: err}
		}
		return nil, nil, err
	}
	return snap, release, nil
}

// The two ways an image can be torn; any other failure to parse one is
// not a torn write.
var (
	errImageMagic = errors.New("persist: bad snapshot magic")
	errImageCRC   = errors.New("persist: snapshot checksum mismatch")
)

// ImageError is Load's refusal of a snapshot whose CRC verifies but
// which does not parse: a version or a catalogue section this build
// does not know, or a malformed body. It is not a torn write, and
// falling back an epoch past it would silently drop its catalogue.
type ImageError struct {
	Path string
	Err  error
}

func (e *ImageError) Error() string {
	return fmt.Sprintf("persist: %s: snapshot does not parse: %v", e.Path, e.Err)
}

// ParseImage CRC-verifies and parses an overlay image: what
// AppendImage wrote, or either encoding older builds left on disk.
// The bytes come from a file or from another process, so every count
// is checked against the bytes that remain before anything is
// allocated from it. The returned Snapshot aliases buf until its
// catalogue has been walked.
func ParseImage(buf []byte) (*Snapshot, error) {
	if len(buf) < len(snapMagic)+4 || string(buf[:len(snapMagic)]) != snapMagic {
		return nil, errImageMagic
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, errImageCRC
	}
	p := body[len(snapMagic):]
	version, p, err := catalog.Uvarint(p)
	if err != nil {
		return nil, err
	}
	if version != snapVersionNodes && version != snapVersionCatalog {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d", version)
	}
	snap := &Snapshot{}
	if snap.Seq, p, err = catalog.Uvarint(p); err != nil {
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
		if v, p, err = catalog.Uvarint(p); err != nil {
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

// RecordError is Load's refusal of a journal record that passed its CRC
// but does not decode: a kind this build does not know, or a malformed
// payload. It is not the torn tail of a crash, and stopping replay there
// would silently drop every record after it.
type RecordError struct {
	Path   string
	Offset int64
	Err    error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("persist: %s: journal record at offset %d: %v", e.Path, e.Offset, e.Err)
}

// scanJournal maps the journal at path and hands the payload of every
// record to fn, in order (scanRecords), returning the length of the
// valid prefix. A missing file is empty. A payload fn refuses ends the
// scan with a *RecordError.
func scanJournal(path string, fn func(payload []byte) error) (int64, error) {
	buf, release, err := mapFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	defer release()
	valid, err := scanRecords(buf, fn)
	if err != nil {
		return int64(valid), &RecordError{Path: path, Offset: int64(valid), Err: err}
	}
	return int64(valid), nil
}

// scanRecords hands the payload of every record framed in buf to fn, in
// order, until the end of buf, a zero length (the preallocated tail no
// append reached) or the first record that is truncated or fails its
// CRC (the torn tail of a crash), and returns the length of the valid
// prefix. An error of fn ends the scan at the record it refused.
func scanRecords(buf []byte, fn func(payload []byte) error) (int, error) {
	valid := 0
	for p := buf; len(p) >= 4; {
		n := uint64(binary.BigEndian.Uint32(p))
		if n == 0 || n+8 > uint64(len(p)) ||
			crc32.ChecksumIEEE(p[4:4+n]) != binary.BigEndian.Uint32(p[4+n:]) {
			break
		}
		if err := fn(p[4 : 4+n]); err != nil {
			return valid, err
		}
		valid += int(n) + 8
		p = p[n+8:]
	}
	return valid, nil
}

// replay applies one journal record's payload to st: a registration or
// an unregistration joins the journal, a ring record replaces the ring.
func (st *LoadedState) replay(p []byte) error {
	if len(p) == 0 {
		return errors.New("persist: empty record")
	}
	switch op := p[0]; op {
	case opRing:
		img, err := ParseImage(p[1:])
		if err == nil {
			st.Peers = img.Peers
		}
		return err
	case opRegister, opUnregister:
		key, p, err := getBytes(p[1:])
		if err != nil {
			return err
		}
		value, p, err := getBytes(p)
		if err != nil {
			return err
		}
		if len(p) != 0 {
			return errors.New("persist: trailing bytes after a record")
		}
		st.Journal = append(st.Journal, Record{Remove: op == opUnregister, Key: st.strs.String(key), Value: st.strs.String(value)})
		return nil
	}
	return fmt.Errorf("persist: unknown record kind %d", p[0])
}

// --- encoding helpers --------------------------------------------------------

// getCount reads a count or length field and refuses one the
// remaining bytes cannot hold — every counted item costs at least a
// byte — so a forged field never drives a loop or an allocation.
func getCount(p []byte) (uint64, []byte, error) {
	n, p, err := catalog.Uvarint(p)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(p)) {
		return 0, nil, errors.New("persist: count or length exceeds the remaining bytes")
	}
	return n, p, nil
}

func getString(p []byte) (string, []byte, error) {
	b, p, err := getBytes(p)
	return string(b), p, err
}

func getBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := getCount(p)
	if err != nil {
		return nil, nil, err
	}
	return p[:n], p[n:], nil
}

// syncPath opens the file or directory at path and fsyncs it: a
// directory so that a rename into it is durable.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}
