package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/lb"
	"dlpt/internal/workload"
)

// twins runs one schedule on two networks built alike, each with its own
// generator seeded alike, so every operation draws the same on both. A
// tick installs its plan on the first as planned and on the second as a
// REPLICA frame decodes it: the snapshots alone.
type twins struct {
	net [2]*core.Network
	r   [2]*rand.Rand
}

func newTwins(seed int64, placement core.Placement) *twins {
	tw := new(twins)
	for i := range tw.net {
		tw.net[i] = core.NewNetwork(keys.LowerAlnum, placement)
		tw.r[i] = rand.New(rand.NewSource(seed))
	}
	return tw
}

// each runs f on both networks.
func (tw *twins) each(f func(net *core.Network, r *rand.Rand) error) error {
	for i := range tw.net {
		if err := f(tw.net[i], tw.r[i]); err != nil {
			return fmt.Errorf("twin %d: %w", i, err)
		}
	}
	return nil
}

// decoded is b as a REPLICA frame delivers it: From, To and the
// snapshots, nothing else.
func decoded(b core.ReplicaBatch) core.ReplicaBatch {
	return core.ReplicaBatch{From: b.From, To: b.To, Infos: slices.Clone(b.Infos)}
}

// tick plans a replication tick on both networks, runs window (when set)
// between the plans and their installs, as a concurrent engine's tick
// can, installs, compacts, and holds the twins to the same replica store
// and counters.
func (tw *twins) tick(window func(*core.Network, *rand.Rand) error) error {
	var plans [2][]core.ReplicaBatch
	for i, net := range tw.net {
		plans[i] = net.ReplicaPlan()
	}
	if window != nil {
		if err := tw.each(window); err != nil {
			return err
		}
	}
	var installed [2]int
	for _, b := range plans[0] {
		installed[0] += tw.net[0].AcceptReplicas(b)
	}
	for _, b := range plans[1] {
		d := decoded(b)
		installed[1] += tw.net[1].AcceptReplicas(d)
	}
	if installed[0] != installed[1] {
		return fmt.Errorf("installed %d snapshots as planned, %d decoded", installed[0], installed[1])
	}
	tw.each(func(net *core.Network, _ *rand.Rand) error { net.CompactReplicas(); return nil })
	return tw.same()
}

// same reports the first difference between the twins' replica stores
// (key, holder, values and loads) or counters.
func (tw *twins) same() error {
	a, b := tw.net[0], tw.net[1]
	if a.Replication != b.Replication || a.Counters != b.Counters {
		return fmt.Errorf("counters %+v %+v as planned, %+v %+v decoded", a.Replication, a.Counters, b.Replication, b.Counters)
	}
	sa, sb := core.ReplicaStore(a), core.ReplicaStore(b)
	if len(sa) != len(sb) {
		return fmt.Errorf("%d replicas as planned, %d decoded", len(sa), len(sb))
	}
	for k, ea := range sa {
		eb, ok := sb[k]
		if !ok || ea.At != eb.At || ea.Key != eb.Key || !slices.Equal(ea.Data, eb.Data) ||
			ea.LoadPrev != eb.LoadPrev || ea.LoadCur != eb.LoadCur {
			return fmt.Errorf("replica of %q: %+v as planned, %+v (%v) decoded", k, ea, eb, ok)
		}
	}
	return nil
}

// checked holds both twins to the replica oracle, and to Validate unless
// a crash is pending.
func (tw *twins) checked(crashed bool) error {
	return tw.each(func(net *core.Network, _ *rand.Rand) error {
		if err := core.CheckReplicaStore(net); err != nil || crashed {
			return err
		}
		return net.Validate()
	})
}

// TestHandleInstallMatchesDecoded runs seeded schedules of writes, hot
// reads, unit resets, crashes and recoveries, joins and leaves,
// balancing rounds and ticks on twins, and holds the install of every
// plan as planned to the install of the same plan as decoded from the
// wire, after every tick. Some ticks run a write, a re-registration of a
// key, a join or a crash between their plan and their install, so a
// planned node can be removed, replaced under its key, re-hosted or
// crashed by the time its snapshot lands.
func TestHandleInstallMatchesDecoded(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := twinSchedule(seed, 300); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func twinSchedule(seed int64, steps int) error {
	s := rand.New(rand.NewSource(-seed)) // the schedule's draws, apart from the twins'
	placement := core.PlacementLexicographic
	if seed%4 == 0 {
		placement = core.PlacementHashed
	}
	tw := newTwins(seed, placement)
	join := func(net *core.Network, r *rand.Rand) error {
		for {
			if id := keys.LowerAlnum.RandomKey(r, 12, 12); !net.Ring().Contains(id) {
				return net.JoinPeer(id, 4+r.Intn(60), r)
			}
		}
	}
	for i := 0; i < 4+s.Intn(5); i++ {
		if err := tw.each(join); err != nil {
			return err
		}
	}
	pool := make([]keys.Key, 60)
	for i := range pool {
		pool[i] = keys.LowerAlnum.RandomKey(s, 1, 6)
	}
	type kv struct {
		k keys.Key
		v string
	}
	var live []kv
	insert := func(e kv) func(*core.Network, *rand.Rand) error {
		return func(net *core.Network, r *rand.Rand) error { return net.InsertData(e.k, e.v, r) }
	}
	remove := func(e kv) func(*core.Network, *rand.Rand) error {
		return func(net *core.Network, _ *rand.Rand) error { net.RemoveData(e.k, e.v); return nil }
	}
	// drop removes live[i] from the model and returns the unregister.
	drop := func(i int) func(*core.Network, *rand.Rand) error {
		f := remove(live[i])
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return f
	}
	// reregister unregisters every value of live[i]'s key, then registers
	// the key again: its node is removed and created anew where it has
	// fewer than two children.
	reregister := func(i int) func(*core.Network, *rand.Rand) error {
		k := live[i].k
		var ops []func(*core.Network, *rand.Rand) error
		for j := len(live) - 1; j >= 0; j-- {
			if live[j].k == k {
				ops = append(ops, drop(j))
			}
		}
		e := kv{k, "again"}
		live = append(live, e)
		ops = append(ops, insert(e))
		return func(net *core.Network, r *rand.Rand) error {
			for _, op := range ops {
				if err := op(net, r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	crash := func() func(*core.Network, *rand.Rand) error {
		ids := tw.net[0].PeerIDs()
		if len(ids) <= 2 {
			return nil
		}
		id := ids[s.Intn(len(ids))]
		return func(net *core.Network, _ *rand.Rand) error { return net.FailPeer(id) }
	}
	crashed := false
	strategies := []lb.Strategy{lb.MLT{}, lb.EqualLoad{}}
	for step := 0; step < steps; step++ {
		var op func(*core.Network, *rand.Rand) error
		check := false
		switch c := s.Intn(100); {
		case crashed && (c < 30 || c >= 55 && c < 75):
			// Inserts, joins, leaves and balancing route through the tree
			// a crash left dangling: recover first.
			op, crashed = func(net *core.Network, _ *rand.Rand) error { net.Recover(); return nil }, false
		case c < 30:
			e := kv{pool[s.Intn(len(pool))], fmt.Sprintf("v%d", s.Intn(3))}
			live = append(live, e)
			op = insert(e)
		case c < 42:
			if len(live) > 0 {
				op = drop(s.Intn(len(live)))
			}
		case c < 50:
			hot := pool[:4]
			op = func(net *core.Network, r *rand.Rand) error {
				for i := 0; i < 20; i++ {
					net.DiscoverRandom(hot[i%len(hot)], false, r)
				}
				return nil
			}
		case c < 55:
			op = func(net *core.Network, _ *rand.Rand) error { net.ResetUnit(); return nil }
		case c < 62:
			op = join
		case c < 67:
			if ids := tw.net[0].PeerIDs(); len(ids) > 2 {
				id := ids[s.Intn(len(ids))]
				op = func(net *core.Network, _ *rand.Rand) error { return net.LeavePeer(id) }
			}
		case c < 75:
			if placement == core.PlacementLexicographic {
				st := strategies[s.Intn(len(strategies))]
				op = func(net *core.Network, _ *rand.Rand) error { _, err := lb.RunRound(net, st); return err }
			}
		case c < 79:
			if op = crash(); op != nil {
				crashed = true
			}
		case c < 83:
			op, crashed = func(net *core.Network, _ *rand.Rand) error { net.Recover(); return nil }, false
		default:
			var window func(*core.Network, *rand.Rand) error
			switch w := s.Intn(6); {
			case w == 0 && len(live) > 0:
				window = drop(s.Intn(len(live)))
			case w == 1 && len(live) > 0 && !crashed:
				window = reregister(s.Intn(len(live)))
			case w == 2 && !crashed:
				window = join
			case w == 3:
				if window = crash(); window != nil {
					crashed = true
				}
			}
			if err := tw.tick(window); err != nil {
				return fmt.Errorf("step %d, tick: %v", step, err)
			}
			if window != nil {
				// The nodes a window changed ship at the next tick.
				if err := tw.tick(nil); err != nil {
					return fmt.Errorf("step %d, tick after a window: %v", step, err)
				}
			}
			check = true
		}
		if op != nil {
			if err := tw.each(op); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
			if err := tw.same(); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
		}
		if check {
			if err := tw.checked(crashed); err != nil {
				return fmt.Errorf("step %d, after a tick (crash pending: %v): %v", step, crashed, err)
			}
		}
	}
	tw.each(func(net *core.Network, _ *rand.Rand) error { net.Recover(); return nil })
	if err := tw.tick(nil); err != nil {
		return fmt.Errorf("final tick: %v", err)
	}
	return tw.checked(false)
}

// TestInstallAcrossTheWindow plans a tick that ships a freshly written
// leaf, then, before the install, removes the leaf, replaces it under its
// key, re-hosts it on a peer that joins, or crashes its host — the window
// between a concurrent engine's plan and its install. The install as
// planned and as decoded must leave the same replica store, and the next
// tick an overlay that passes the replica oracle and Validate.
func TestInstallAcrossTheWindow(t *testing.T) {
	cases := []struct {
		name   string
		window func(net *core.Network, r *rand.Rand, k keys.Key) error
	}{
		{"removed", func(net *core.Network, _ *rand.Rand, k keys.Key) error {
			net.RemoveData(k, "extra")
			net.RemoveData(k, string(k))
			if net.HasNode(k) {
				return fmt.Errorf("%q still has a node", k)
			}
			return nil
		}},
		{"replaced", func(net *core.Network, r *rand.Rand, k keys.Key) error {
			before, _, _ := net.NodeAt(k)
			net.RemoveData(k, "extra")
			net.RemoveData(k, string(k))
			if err := net.InsertData(k, "again", r); err != nil {
				return err
			}
			if after, _, _ := net.NodeAt(k); after == before {
				return fmt.Errorf("%q kept its node", k)
			}
			return nil
		}},
		{"re-hosted", func(net *core.Network, r *rand.Rand, k keys.Key) error {
			_, host, _ := net.NodeAt(k)
			if err := net.JoinPeer(k, 100, r); err != nil {
				return err
			}
			if _, now, _ := net.NodeAt(k); now == host {
				return fmt.Errorf("%q stayed on %q", k, host.ID)
			}
			return nil
		}},
		{"crashed", func(net *core.Network, _ *rand.Rand, k keys.Key) error {
			_, host, _ := net.NodeAt(k)
			return net.FailPeer(host.ID)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tw := newTwins(7, core.PlacementLexicographic)
			corpus := workload.GridCorpus(200)
			key := corpus[len(corpus)/2] + "zz"
			err := tw.each(func(net *core.Network, r *rand.Rand) error {
				for i := 0; i < 6; i++ {
					if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 100, r); err != nil {
						return err
					}
				}
				for _, k := range append(corpus, key) {
					if err := net.InsertData(k, string(k), r); err != nil {
						return err
					}
				}
				net.Replicate()
				return net.InsertData(key, "extra", r)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := tw.tick(func(net *core.Network, r *rand.Rand) error {
				return tc.window(net, r, key)
			}); err != nil {
				t.Fatal(err)
			}
			tw.each(func(net *core.Network, _ *rand.Rand) error { net.Recover(); return nil })
			if err := tw.tick(nil); err != nil {
				t.Fatal(err)
			}
			if err := tw.checked(false); err != nil {
				t.Fatal(err)
			}
		})
	}
}
