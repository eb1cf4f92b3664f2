package core_test

import (
	"fmt"
	"math/rand"
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
// crashed, unrecovered nodes.
func TestReplicaStoreMatchesOverlay(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := replicaSchedule(seed, 400); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// replicaSchedule runs one schedule of the given length and reports the
// first step at which the replica store or the overlay went wrong.
func replicaSchedule(seed int64, steps int) error {
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
				return net.JoinPeer(id, capacity(), r)
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
			}
		case op < 82:
			if placement == core.PlacementHashed {
				break
			}
			if _, err := lb.RunRound(net, strategies[r.Intn(len(strategies))]); err != nil {
				return fmt.Errorf("step %d balance: %v", step, err)
			}
		case op < 86:
			if ids := net.PeerIDs(); len(ids) > 2 {
				if err := net.FailPeer(ids[r.Intn(len(ids))]); err != nil {
					return fmt.Errorf("step %d crash: %v", step, err)
				}
				crashed = true
			}
		case op < 90:
			net.Recover()
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
	net.Recover()
	net.Replicate()
	if err := core.CheckReplicaStore(net); err != nil {
		return fmt.Errorf("final tick: %v", err)
	}
	return net.Validate()
}
