package persist

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dlpt/internal/catalog"
)

// appendQuarter journals n/4 registrations and unregistrations over
// cat's keys: as many records as the quarter rule lets a tick carry.
func appendQuarter(tb testing.TB, s *Store, cat entrySource, n int) {
	tb.Helper()
	for i := 0; i < n/4; i++ {
		e := cat[(i*7919)%len(cat)]
		if err := s.Append(i%2 == 1, e.Key, fmt.Sprintf("ep://extra-%d", i%3)); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCommit is a durable tick's Commit at 20,000 keys with a
// quarter of that journaled since the last image: folding the previous
// image with the rotated journal, and encoding a captured catalogue
// instead.
func BenchmarkCommit(b *testing.B) {
	const n = 20000
	for _, fold := range []bool{true, false} {
		b.Run(map[bool]string{true: "fold", false: "capture"}[fold], func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			cat, peers := gridCapture(n), []PeerState{{ID: "peer", Capacity: 1}}
			if _, err := writeSnapshot(s, peers, cat); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				appendQuarter(b, s, cat, n)
				b.StartTimer()
				p, err := s.BeginSnapshot()
				if err != nil {
					b.Fatal(err)
				}
				var src EntrySource
				if !fold {
					src = cat
				}
				if _, err := p.Commit(peers, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// foldKeys are the keys FuzzFold draws from: every string over {a, b}
// up to four long, the empty key and prefix chains included, and "c".
var foldKeys = func() []string {
	out := []string{""}
	for n := 0; len(out) < 31; n++ {
		out = append(out, out[n]+"a", out[n]+"b")
	}
	return append(out[:31], "c")
}()

// FuzzFold holds a Fold to replay: the first half of the input draws an
// image's catalogue, the second a sequence of registrations and
// unregistrations after it, and the fold's walks must yield, twice, what
// applying the records in order to a map of the image's entries leaves.
// An image encoded from the fold must hold the same.
func FuzzFold(f *testing.F) {
	f.Add([]byte{0, 9, 17, 33, 200, 1, 2, 3, 5, 8})
	f.Add([]byte{255, 254, 0, 1, 1, 0})
	f.Add([]byte{7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		model := killModel{}
		for _, b := range data[:half] {
			model.apply(false, foldKeys[b>>3], fmt.Sprintf("v%d", b&7))
		}
		image := AppendImage(nil, 1, nil, entrySource(model.sorted()))
		if len(data)%2 == 1 {
			image = v1Image(nil, model.sorted())
		}
		snap, err := ParseImage(image)
		if err != nil {
			t.Fatal(err)
		}
		var records []Record
		for _, b := range data[half:] {
			r := Record{Remove: b&1 == 1, Key: foldKeys[(b>>1)&31], Value: fmt.Sprintf("v%d", b>>6)}
			records = append(records, r)
			model.apply(r.Remove, r.Key, r.Value)
		}
		want := model.sorted()
		fold := NewFold(snap, records)
		for walk := 0; walk < 2; walk++ {
			var got []catalog.Entry
			fold.Ascend(func(e catalog.Entry) bool {
				got = append(got, catalog.Entry{Key: e.Key, Values: slices.Clone(e.Values)})
				return true
			})
			if fold.Err() != nil || !statesEqual(killState{cat: got}, killState{cat: want}) {
				t.Fatalf("walk %d: fold %v (err %v), replay %v", walk, got, fold.Err(), want)
			}
		}
		again, err := ParseImage(AppendImage(nil, 2, nil, fold))
		if err != nil {
			t.Fatal(err)
		}
		if got := nodeList(t, again); !statesEqual(killState{cat: got}, killState{cat: want}) {
			t.Fatalf("image of the fold holds %v, replay %v", got, want)
		}
	})
}

// commitFold ends a tick as a durable overlay does: by folding the
// previous image with the rotated journal wherever the store can.
func commitFold(p *PendingSnapshot, ring []PeerState, cat []catalog.Entry) error {
	var src EntrySource
	if !p.Folds() {
		src = entrySource(cat)
	}
	_, err := p.Commit(ring, src)
	return err
}

// TestKillAnywhereFolding is TestKillAnywhere with every tick that can
// fold doing so: a process killed while it folds, writes or prunes
// leaves Load the acknowledged history.
func TestKillAnywhereFolding(t *testing.T) {
	killSweep(t, "TestKillAnywhereFolding", &killFoldingRounds, commitFold)
}

var killFoldingRounds atomic.Int64

// TestMirrorFoldsWhatItSaw pins Store.Mirror: it folds the newest image
// this store committed with the journal records appended before the
// capture, none after; without an image of the store's own it declines,
// and once two later snapshots have pruned its image, Image fails.
func TestMirrorFoldsWhatItSaw(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Mirror() != nil {
		t.Fatal("a store with no image mirrors")
	}
	peers, nodes := testState()
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{{Key: "dgemm", Value: "ep://9"}, {Remove: true, Key: "dgemv", Value: "ep://3"}, {Key: "saxpy", Value: "ep://4"}} {
		if err := s.Append(r.Remove, r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Mirror()
	if err := s.Append(false, "late", "ep://5"); err != nil {
		t.Fatal(err)
	}
	if _, err := writeSnapshot(s, peers, nodes); err != nil {
		t.Fatal(err)
	}
	img, err := m.Image(nil, peers)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseImage(img)
	if err != nil {
		t.Fatal(err)
	}
	want := []catalog.Entry{{Key: "dgemm", Values: []string{"ep://1", "ep://2", "ep://9"}}, {Key: "saxpy", Values: []string{"ep://4"}}}
	if got := nodeList(t, snap); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(snap.Peers, peers) {
		t.Fatalf("mirror image holds %v %v, want %v %v", snap.Peers, got, peers, want)
	}
	p, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mirror() != nil {
		t.Fatal("a store mirrors while its newest image is pending")
	}
	if _, err := p.Commit(peers, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Image(nil, peers); err == nil {
		t.Fatal("a mirror of a pruned image folded")
	}
}

// TestMirrorOfUnreadableImageStopsFolding: where the newest image does
// not read back, Image fails and the store folds it no more; Mirror,
// JournalCarries and BeginSnapshot send the next tick to a captured
// catalogue, whose image the store folds again.
func TestMirrorOfUnreadableImageStopsFolding(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	peers, nodes := testState()
	seq, err := writeSnapshot(s, peers, nodes)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(s.snapPath(seq))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(s.snapPath(seq), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mirror().Image(nil, peers); err == nil {
		t.Fatal("a mirror of a corrupt image folded")
	}
	if s.Mirror() != nil || s.JournalCarries(peers) {
		t.Fatal("the store still folds an image that does not read back")
	}
	p, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if p.Folds() {
		t.Fatal("a snapshot folds an image that does not read back")
	}
	if _, err := p.Commit(peers, entrySource(nodes)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mirror().Image(nil, peers); err != nil {
		t.Fatalf("the store's next image: %v", err)
	}
}
