package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
)

// TestReplicaStoreMatchesOverlay drives seeded random schedules of
// inserts, removes, discoveries, unit resets, joins, leaves, crashes
// (with replication ticks inside the crash window), recoveries and
// balancing rounds, and holds the replica store to the oracle after
// every tick: each live node's replica on its host's successor, equal
// to what a full tick would ship, and nothing else but the replicas of
// crashed, unrecovered nodes. After every join, leave, recovery and
// balancing round, the reference re-home must find nothing to move.
func TestReplicaStoreMatchesOverlay(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := replicaSchedule(seed, 400, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// replicaSchedule runs one schedule of the given length and reports the
// first step at which the replica store or the overlay went wrong.
// recover, when set, runs each recovery in place of net.Recover.
func replicaSchedule(seed int64, steps int, recover func(net *core.Network) error) error {
	if recover == nil {
		recover = func(net *core.Network) error { net.Recover(); return nil }
	}
	r := rand.New(rand.NewSource(seed))
	placement := core.PlacementLexicographic
	if seed%4 == 0 {
		placement = core.PlacementHashed
	}
	net := core.NewNetwork(keys.LowerAlnum, placement)
	capacity := func() int { return 4 + r.Intn(60) }
	join := func() error {
		for {
			id := keys.LowerAlnum.RandomKey(r, 12, 12)
			if _, taken := net.Peer(id); !taken {
				if err := net.JoinPeer(id, capacity(), r); err != nil {
					return err
				}
				return misplacedReplica(net)
			}
		}
	}
	for i := 0; i < 4+r.Intn(5); i++ {
		if err := join(); err != nil {
			return err
		}
	}
	pool := make([]keys.Key, 60)
	for i := range pool {
		pool[i] = keys.LowerAlnum.RandomKey(r, 1, 6)
	}
	value := func() string { return fmt.Sprintf("v%d", r.Intn(3)) }
	type kv struct {
		k keys.Key
		v string
	}
	var live []kv // registrations, possibly lost to a crash since
	crashed := false
	strategies := []lb.Strategy{lb.MLT{}, lb.EqualLoad{}}

	for step := 0; step < steps; step++ {
		op := r.Intn(100)
		if crashed && (op < 26 || op >= 52 && op < 82) {
			// Inserts, joins, leaves and balancing wait for Recover:
			// they route through the tree a crash left dangling.
			op = 82 + r.Intn(18)
		}
		switch {
		case op < 26:
			e := kv{pool[r.Intn(len(pool))], value()}
			if err := net.InsertData(e.k, e.v, r); err != nil {
				return fmt.Errorf("step %d insert %q: %v", step, e.k, err)
			}
			live = append(live, e)
		case op < 38:
			if len(live) > 0 {
				i := r.Intn(len(live))
				net.RemoveData(live[i].k, live[i].v)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case op < 48:
			net.DiscoverRandom(pool[r.Intn(len(pool))], false, r)
		case op < 52:
			net.ResetUnit()
		case op < 60:
			if err := join(); err != nil {
				return fmt.Errorf("step %d join: %v", step, err)
			}
		case op < 66:
			if ids := net.PeerIDs(); len(ids) > 2 {
				if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
					return fmt.Errorf("step %d leave: %v", step, err)
				}
				if err := misplacedReplica(net); err != nil {
					return fmt.Errorf("step %d, after a leave: %v", step, err)
				}
			}
		case op < 82:
			if placement == core.PlacementHashed {
				break
			}
			if _, err := lb.RunRound(net, strategies[r.Intn(len(strategies))]); err != nil {
				return fmt.Errorf("step %d balance: %v", step, err)
			}
			if err := misplacedReplica(net); err != nil {
				return fmt.Errorf("step %d, after a balancing round: %v", step, err)
			}
		case op < 86:
			if ids := net.PeerIDs(); len(ids) > 2 {
				if err := net.FailPeer(ids[r.Intn(len(ids))]); err != nil {
					return fmt.Errorf("step %d crash: %v", step, err)
				}
				crashed = true
			}
		case op < 90:
			if err := recover(net); err != nil {
				return fmt.Errorf("step %d recover: %v", step, err)
			}
			if err := misplacedReplica(net); err != nil {
				return fmt.Errorf("step %d, after a recovery: %v", step, err)
			}
			crashed = false
		default:
			net.Replicate()
			if err := core.CheckReplicaStore(net); err != nil {
				return fmt.Errorf("step %d, after a tick (crash pending: %v): %v", step, crashed, err)
			}
			if crashed {
				break
			}
			if err := net.Validate(); err != nil {
				return fmt.Errorf("step %d, after a tick: %v", step, err)
			}
		}
	}
	if err := recover(net); err != nil {
		return fmt.Errorf("final recover: %v", err)
	}
	if err := misplacedReplica(net); err != nil {
		return fmt.Errorf("final recover: %v", err)
	}
	net.Replicate()
	if err := core.CheckReplicaStore(net); err != nil {
		return fmt.Errorf("final tick: %v", err)
	}
	return net.Validate()
}

// misplacedReplica is the reference re-home, a full rescan: it checks
// the replica of every live node against the successor rule — the ring
// successor of the peer the placement names for the node — and reports
// the first replica such a rescan would move.
func misplacedReplica(net *core.Network) error {
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		for _, n := range p.Nodes() {
			loc, ok := net.ReplicaHolder(n.Key)
			if !ok {
				continue
			}
			host, _ := net.HostOf(n.Key)
			if want, _ := net.Ring().Successor(host); loc != want {
				return fmt.Errorf("replica of %q on %q, successor rule says %q", n.Key, loc, want)
			}
		}
	}
	return nil
}

// TestRecoverNeedsNoReplicaStructure holds Recover to what the key set
// derives: on the oracle's seeded schedules, under both placements,
// every recovery also runs on a copy of the network whose replicas were
// stripped of their father and child links, and the two trees must
// agree node by node — label, host, father, children, values and loads.
func TestRecoverNeedsNoReplicaStructure(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		err := replicaSchedule(seed, 400, func(net *core.Network) error {
			stripped := core.CloneNetwork(net)
			core.StripReplicaStructure(stripped)
			net.Recover()
			stripped.Recover()
			if err := stripped.Validate(); err != nil {
				return fmt.Errorf("recovered from stripped replicas: %v", err)
			}
			return sameTree(net, stripped)
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// sameTree compares two networks node by node: the same peers, each
// hosting the same nodes with the same father, children, values and
// loads, under the same root.
func sameTree(a, b *core.Network) error {
	ra, oka := a.Root()
	rb, okb := b.Root()
	if ra != rb || oka != okb {
		return fmt.Errorf("root %q/%v, stripped %q/%v", ra, oka, rb, okb)
	}
	if ia, ib := a.PeerIDs(), b.PeerIDs(); !slices.Equal(ia, ib) {
		return fmt.Errorf("peers %q, stripped %q", ia, ib)
	}
	for _, id := range a.PeerIDs() {
		pa, _ := a.Peer(id)
		pb, _ := b.Peer(id)
		hosted := make(map[keys.Key]*core.Node, pb.NumNodes())
		for _, n := range pb.Nodes() {
			hosted[n.Key] = n
		}
		if pa.NumNodes() != len(hosted) {
			return fmt.Errorf("peer %q hosts %d nodes, stripped %d", id, pa.NumNodes(), len(hosted))
		}
		for _, n := range pa.Nodes() {
			m, ok := hosted[n.Key]
			switch {
			case !ok:
				return fmt.Errorf("node %q on %q missing from the stripped recovery", n.Key, id)
			case n.HasFather != m.HasFather || n.Father != m.Father:
				return fmt.Errorf("node %q: father %q/%v, stripped %q/%v", n.Key, n.Father, n.HasFather, m.Father, m.HasFather)
			case !slices.Equal(n.ChildrenSorted(), m.ChildrenSorted()):
				return fmt.Errorf("node %q: children %q, stripped %q", n.Key, n.ChildrenSorted(), m.ChildrenSorted())
			case !slices.Equal(n.Data, m.Data):
				return fmt.Errorf("node %q: values %q, stripped %q", n.Key, n.Data, m.Data)
			case n.LoadPrev != m.LoadPrev || n.Load() != m.Load():
				return fmt.Errorf("node %q: loads %d/%d, stripped %d/%d", n.Key, n.LoadPrev, n.Load(), m.LoadPrev, m.Load())
			}
		}
	}
	return nil
}

// TestRehomeReachesKeysBackAfterCompaction follows a key through a
// concurrent engine's tick: it is removed while the ring changes under
// its old replica, registered again between the tick's plan and its
// install, and the tick's compaction runs. Its replica is off target
// and on no host a later join walks; the join must still re-home it, as
// a full rescan would.
func TestRehomeReachesKeysBackAfterCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for _, id := range []keys.Key{"a000", "h000", "p000", "w000"} {
		if err := net.JoinPeer(id, 100, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []keys.Key{"akey", "mkey", "zkey"} {
		if err := net.InsertData(k, "v", r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	net.RemoveData("mkey", "v")
	if err := net.JoinPeer("mkey", 100, r); err != nil { // mkey's host now
		t.Fatal(err)
	}
	plan := net.ReplicaPlan()
	if err := net.InsertData("mkey", "v", r); err != nil {
		t.Fatal(err)
	}
	for _, b := range plan {
		net.AcceptReplicas(b)
	}
	net.CompactReplicas()
	if err := net.JoinPeer("b000", 100, r); err != nil { // beside a000 only
		t.Fatal(err)
	}
	if err := misplacedReplica(net); err != nil {
		t.Fatal(err)
	}
}
