package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dlpt/internal/catalog"
	"dlpt/internal/keys"
	"dlpt/internal/persist"
)

// PersistState is the eager reference a capture is held against: every
// peer (id, capacity) in ring order and the durable catalogue, collected
// by walking the whole overlay, as sorted entries that are also a
// persist.EntrySource.
func (net *Network) PersistState() ([]persist.PeerState, entries) {
	return net.RingState(), net.catalogueData()
}

// journaled attaches a no-op journal, as a durable overlay has one.
func journaled(net *Network) {
	net.Journal = func(bool, keys.Key, string) {}
}

func captureToNodes(c persist.EntrySource) []catalog.Entry {
	var out []catalog.Entry
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
// eager PersistState walk at capture time, and must still equal it
// after arbitrary later mutations: Commit encodes it off the lock.
func TestCaptureSnapshotMatchesPersistState(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	net, _ := buildNetwork(t, 6, 1<<30, 51)
	journaled(net)
	type frozen struct {
		cap  persist.EntrySource
		want []catalog.Entry
	}
	var caps []frozen
	live := make([]KV, 0, 256)
	check := func(step int) {
		_, want := net.PersistState()
		peers, c := net.RingState(), net.CaptureSnapshot(false)
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
