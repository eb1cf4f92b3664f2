package core

import (
	"math/rand"
	"slices"
	"testing"

	"dlpt/internal/keys"
)

// protocolStep is one operation of a TestProtocolCounters schedule:
// join the peer join, insert key insert, or leave the peer leave.
type protocolStep struct{ join, insert, leave keys.Key }

// algorithm3Steps builds a tree that takes every case of Algorithm 3,
// whatever node each request enters at: a root, an existing key, a new
// child under a node with none towards the key ("abc"), a descent
// through a child ("abcde"), a new root above the old one ("a"), a node
// interposed between a father and its child ("abcd"), a sibling under
// a new GCP node that becomes the root ("b", under ε) and one that gets
// a father ("bce", under "bc").
var algorithm3Steps = []protocolStep{
	{insert: "ab"}, {insert: "abc"}, {insert: "abc"}, {insert: "abcde"},
	{insert: "a"}, {insert: "abcd"}, {insert: "b"}, {insert: "bcd"},
	{insert: "bce"}, {insert: "bce"},
}

// TestProtocolCounters pins the maintenance traffic of seeded schedules
// on both placements: peers joining an empty tree and through the tree,
// every case of Algorithm 3, random registrations and leaves. Each
// delivered protocol message is one maintenance message, physical when
// its receiving host differs from its sender, so a change in how the
// messages travel between handlers that changes a count fails here.
func TestProtocolCounters(t *testing.T) {
	type counts struct{ msgs, physical, transferred int }
	for _, tc := range []struct {
		name      string
		placement Placement
		seed      int64
		want      counts
	}{
		{"lexicographic/1", PlacementLexicographic, 1, counts{961, 302, 193}},
		{"lexicographic/2", PlacementLexicographic, 2, counts{917, 290, 139}},
		{"lexicographic/3", PlacementLexicographic, 3, counts{958, 301, 100}},
		{"hashed/1", PlacementHashed, 1, counts{1709, 1312, 350}},
		{"hashed/2", PlacementHashed, 2, counts{1531, 1189, 232}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(tc.seed))
			net := NewNetwork(keys.LowerAlnum, tc.placement)
			var steps []protocolStep
			for _, id := range []keys.Key{"h", "q", "c"} { // before any node: an empty overlay, then an empty tree
				steps = append(steps, protocolStep{join: id})
			}
			steps = append(steps, algorithm3Steps...)
			var joined []keys.Key
			for i := 0; i < 120; i++ {
				switch {
				case i%10 == 3:
					id := keys.LowerAlnum.RandomKey(r, 12, 12)
					joined = append(joined, id)
					steps = append(steps, protocolStep{join: id})
				case i%15 == 14 && len(joined) > 0:
					steps = append(steps, protocolStep{leave: joined[0]})
					joined = joined[1:]
				default:
					steps = append(steps, protocolStep{insert: keys.LowerAlnum.RandomKey(r, 1, 5)})
				}
			}
			for i, s := range steps {
				var err error
				switch {
				case s.join != "":
					err = net.JoinPeer(s.join, 10, r)
				case s.leave != "":
					err = net.LeavePeer(s.leave)
				default:
					err = net.InsertKey(s.insert, r)
				}
				if err != nil {
					t.Fatalf("step %d %+v: %v", i, s, err)
				}
			}
			mustValidate(t, net)
			got := counts{net.Counters.MaintenanceMsgs, net.Counters.MaintenancePhysical, net.Counters.NodesTransferred}
			if got != tc.want {
				t.Fatalf("counters (messages, physical, transferred) = %+v, want %+v", got, tc.want)
			}
		})
	}
	// An insert routed into a node whose host crashed fails with the
	// absent-node error and leaves nothing behind: after Recover the
	// next insert succeeds.
	t.Run("lost father", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		net := NewNetwork(keys.LowerAlnum, PlacementLexicographic)
		for _, id := range []keys.Key{"a", "ab", "z"} {
			if err := net.JoinPeer(id, 10, r); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []keys.Key{"a", "abc", "abd"} { // "ab", their father, alone on peer "ab"
			if err := net.InsertKey(k, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.FailPeer("ab"); err != nil {
			t.Fatal(err)
		}
		// From every node left, "abe" goes through "ab": down from the
		// root, up from its children.
		for range 3 {
			err := net.InsertKey("abe", r)
			if want := `core: DataInsertion addressed to absent node "ab"`; err == nil || err.Error() != want {
				t.Fatalf("insert through a lost node = %v, want %q", err, want)
			}
		}
		if _, lost := net.Recover(); len(lost) != 0 {
			t.Fatalf("Recover lost %q", lost)
		}
		if err := net.InsertKey("abe", r); err != nil {
			t.Fatalf("insert after Recover: %v", err)
		}
		mustValidate(t, net)
		if got, want := labels(net), []keys.Key{"a", "ab", "abc", "abd", "abe"}; !slices.Equal(got, want) {
			t.Fatalf("nodes after Recover and insert = %q, want %q", got, want)
		}
		got := counts{net.Counters.MaintenanceMsgs, net.Counters.MaintenancePhysical, net.Counters.NodesTransferred}
		if want := (counts{34, 19, 0}); got != want {
			t.Fatalf("counters (messages, physical, transferred) = %+v, want %+v", got, want)
		}
	})
}
