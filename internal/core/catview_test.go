package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dlpt/internal/catalog"
	"dlpt/internal/keys"
	"dlpt/internal/persist"
)

// PersistState is the eager reference the copy-on-write capture is
// held against: every peer (id, capacity) in ring order and the
// durable catalogue, collected by walking the whole overlay.
func (net *Network) PersistState() ([]persist.PeerState, []catalog.Entry) {
	ids := net.ring.IDs()
	peers := make([]persist.PeerState, 0, len(ids))
	for _, id := range ids {
		peers = append(peers, persist.PeerState{ID: string(id), Capacity: net.peers[id].Capacity})
	}
	ks, data := net.catalogueData()
	nodes := make([]catalog.Entry, 0, len(ks))
	for _, k := range ks {
		nodes = append(nodes, catalog.Entry{Key: string(k), Values: data[k]})
	}
	return peers, nodes
}

// journaled attaches a no-op journal: a network keeps its catalogue
// image between captures only when it has a journal to snapshot for.
func journaled(net *Network) {
	net.Journal = func(bool, keys.Key, string) {}
}

func captureToNodes(c *CatalogueCapture) []catalog.Entry {
	out := make([]catalog.Entry, 0, c.Len())
	c.Ascend(func(e catalog.Entry) bool {
		vals := append([]string(nil), e.Values...)
		out = append(out, catalog.Entry{Key: e.Key, Values: vals})
		return true
	})
	return out
}

func nodesEqual(a, b []catalog.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				return false
			}
		}
	}
	return true
}

// TestCaptureSnapshotMatchesPersistState drives a random mix of
// registrations, unregistrations, churn and crash/recover cycles,
// capturing the catalogue along the way. Every capture must equal the
// eager PersistState walk at capture time, and — the copy-on-write
// property — must still equal it after arbitrary later mutations.
func TestCaptureSnapshotMatchesPersistState(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	net, _ := buildNetwork(t, 6, 1<<30, 51)
	journaled(net)
	type frozen struct {
		cap  *CatalogueCapture
		want []catalog.Entry
	}
	var caps []frozen
	live := make([]KV, 0, 256)
	check := func(step int) {
		_, want := net.PersistState()
		peers, c := net.CaptureSnapshot()
		if len(peers) != net.NumPeers() {
			t.Fatalf("step %d: captured %d peers, overlay has %d", step, len(peers), net.NumPeers())
		}
		if got := captureToNodes(c); !nodesEqual(got, want) {
			t.Fatalf("step %d: capture diverges from PersistState:\n got %+v\nwant %+v", step, got, want)
		}
		caps = append(caps, frozen{c, want})
	}
	for step := 0; step < 400; step++ {
		switch op := r.Intn(10); {
		case op < 6:
			k := keys.LowerAlnum.RandomKey(r, 2, 10)
			v := fmt.Sprintf("ep://%d", r.Intn(8))
			if err := net.InsertData(k, v, r); err != nil {
				t.Fatal(err)
			}
			live = append(live, KV{k, v})
		case op < 7 && len(live) > 0:
			i := r.Intn(len(live))
			net.RemoveData(live[i].Key, live[i].Value)
			live = append(live[:i], live[i+1:]...)
		case op < 8:
			net.Replicate()
		case op < 9 && net.NumPeers() > 2:
			ids := net.PeerIDs()
			if err := net.FailPeer(ids[r.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
			net.Recover()
			// Recovery may have declared keys lost; drop them from the
			// mirror so later removes stay meaningful.
			kept := live[:0]
			for _, kv := range live {
				if net.HasNode(kv.Key) {
					kept = append(kept, kv)
				}
			}
			live = kept
		default:
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<30, r); err != nil {
				t.Fatal(err)
			}
		}
		if step%17 == 0 {
			check(step)
		}
	}
	// The frozen captures must have been untouched by every mutation
	// after them.
	for i, f := range caps {
		if got := captureToNodes(f.cap); !nodesEqual(got, f.want) {
			t.Fatalf("capture %d mutated after the fact:\n got %+v\nwant %+v", i, got, f.want)
		}
	}
}

// TestCaptureSnapshotChunkSplits exercises chunk split and drain
// paths around the chunk size bound.
func TestCaptureSnapshotChunkSplits(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	net, _ := buildNetwork(t, 3, 1<<30, 52)
	journaled(net)
	var inserted []keys.Key
	for i := 0; i < 3*catChunkMax; i++ {
		k := keys.Key(fmt.Sprintf("svc%04d", i))
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, k)
	}
	_, c := net.CaptureSnapshot()
	if c.Len() != len(inserted) {
		t.Fatalf("capture len = %d, want %d", c.Len(), len(inserted))
	}
	// Drain everything (in random order) with captures interleaved.
	r.Shuffle(len(inserted), func(i, j int) { inserted[i], inserted[j] = inserted[j], inserted[i] })
	for i, k := range inserted {
		net.RemoveData(k, string(k))
		if i%64 == 0 {
			_, want := net.PersistState()
			_, cc := net.CaptureSnapshot()
			if got := captureToNodes(cc); !nodesEqual(got, want) {
				t.Fatalf("drain step %d: capture diverges", i)
			}
		}
	}
	_, cc := net.CaptureSnapshot()
	if cc.Len() != 0 {
		t.Fatalf("drained capture len = %d", cc.Len())
	}
	if got := captureToNodes(c); len(got) != 3*catChunkMax {
		t.Fatalf("first capture shrank to %d entries", len(got))
	}
}

// TestCaptureWithoutJournalKeepsNoImage pins what a store-less steward
// pays between joins: nothing. With no journal to snapshot for, a
// capture is built for the caller alone — later mutations maintain no
// image, leave the capture untouched, and show up in the next one.
func TestCaptureWithoutJournalKeepsNoImage(t *testing.T) {
	net, r := buildNetwork(t, 3, 1<<30, 53)
	for i := 0; i < 2*catChunkMax; i++ {
		if err := net.InsertKey(keys.Key(fmt.Sprintf("svc%04d", i)), r); err != nil {
			t.Fatal(err)
		}
	}
	_, first := net.CaptureSnapshot()
	if net.cat != nil {
		t.Fatal("journal-less network retained its catalogue image")
	}
	want := captureToNodes(first)
	if err := net.InsertKey("svc0000x", r); err != nil {
		t.Fatal(err)
	}
	net.RemoveData("svc0001", "svc0001")
	if net.cat != nil {
		t.Fatal("mutations rebuilt an image nobody asked for")
	}
	if got := captureToNodes(first); !nodesEqual(got, want) {
		t.Fatal("capture changed after the fact")
	}
	_, wantNow := net.PersistState()
	_, second := net.CaptureSnapshot()
	if got := captureToNodes(second); !nodesEqual(got, wantNow) || second.Len() != first.Len() {
		t.Fatalf("second capture has %d entries, first %d", second.Len(), first.Len())
	}
}
