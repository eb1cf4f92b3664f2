package lb

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
)

// buildLoaded creates a network with the given peer capacities,
// inserts keys, and drives one unit of gated traffic so LoadPrev is
// populated.
func buildLoaded(t *testing.T, seed int64, capacities []int, nkeys, requests int) (*core.Network, *rand.Rand, []keys.Key) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for _, c := range capacities {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), c, r); err != nil {
			t.Fatal(err)
		}
	}
	var ks []keys.Key
	for i := 0; i < nkeys; i++ {
		k := keys.LowerAlnum.RandomKey(r, 2, 8)
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	net.ResetUnit()
	for i := 0; i < requests; i++ {
		net.DiscoverRandom(ks[r.Intn(len(ks))], true, r)
	}
	net.ResetUnit() // LoadCur -> LoadPrev
	return net, r, ks
}

func TestByName(t *testing.T) {
	for _, name := range []string{"MLT", "KC", "EqualLoad", "NoLB", "none", ""} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatalf("unknown strategy must error")
	}
	s, _ := ByName("mlt")
	if s.Name() != "MLT" {
		t.Fatalf("Name = %q", s.Name())
	}
	s, _ = ByName("kc")
	if s.Name() != "KC" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestNoLB(t *testing.T) {
	net, r, _ := buildLoaded(t, 1, []int{10, 10, 10}, 40, 100)
	moved, err := NoLB{}.Periodic(net, net.PeerIDs()[0])
	if err != nil || moved {
		t.Fatalf("NoLB must never move: %v %v", moved, err)
	}
	id := NoLB{}.PlaceJoin(net, r, 10)
	if _, exists := net.Peer(id); exists {
		t.Fatalf("PlaceJoin returned an existing peer id")
	}
}

func TestCircularSort(t *testing.T) {
	sorted := func(anchor keys.Key, ks ...keys.Key) []keys.Key {
		ns := make([]*core.Node, len(ks))
		for i, k := range ks {
			ns[i] = &core.Node{Key: k}
		}
		circularSort(ns, anchor)
		for i, n := range ns {
			ks[i] = n.Key
		}
		return ks
	}
	if got, want := sorted("f", "x", "d", "m", "a"), []keys.Key{"m", "x", "a", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("circularSort = %v, want %v", got, want)
	}
	if got := sorted("z", "b", "a"); !reflect.DeepEqual(got, []keys.Key{"a", "b"}) {
		t.Fatalf("wrap-only sort = %v", got)
	}
}

func TestMLTImprovesPairThroughput(t *testing.T) {
	// Heterogeneous capacities: strong and weak peers.
	net, _, _ := buildLoaded(t, 2, []int{40, 10, 40, 10, 40, 10}, 80, 600)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	predicted := func() int {
		total := 0
		for _, id := range net.PeerIDs() {
			p, _ := net.Peer(id)
			l := p.LoadPrev()
			if l > p.Capacity {
				l = p.Capacity
			}
			total += l
		}
		return total
	}
	before := predicted()
	movedAny := false
	for _, id := range net.PeerIDs() {
		moved, err := (MLT{}).Periodic(net, id)
		if err != nil {
			t.Fatalf("MLT periodic: %v", err)
		}
		movedAny = movedAny || moved
		if err := net.Validate(); err != nil {
			t.Fatalf("after MLT on %q: %v", id, err)
		}
	}
	after := predicted()
	if movedAny && after < before {
		t.Fatalf("MLT reduced predicted throughput: %d -> %d", before, after)
	}
	if !movedAny {
		t.Logf("note: no move applied (already balanced)")
	}
}

// TestMLTBoundaryOptimality cross-checks the boundary scan against a
// brute-force search on a constructed pair.
func TestMLTBoundaryOptimality(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		m := 2 + r.Intn(10)
		loads := make([]int, m)
		for i := range loads {
			loads[i] = r.Intn(20)
		}
		cp, cs := 1+r.Intn(30), 1+r.Intn(30)
		// brute force best throughput over j in [1, m-1]
		best := -1
		for j := 1; j <= m-1; j++ {
			lp := 0
			for _, l := range loads[:j] {
				lp += l
			}
			ls := 0
			for _, l := range loads[j:] {
				ls += l
			}
			tp := lp
			if cp < tp {
				tp = cp
			}
			ts := ls
			if cs < ts {
				ts = cs
			}
			if tp+ts > best {
				best = tp + ts
			}
		}
		// pairState computation must agree.
		st := &pairState{
			p: &core.Peer{Capacity: cp},
			s: &core.Peer{Capacity: cs},
		}
		st.nodes = make([]*core.Node, m)
		st.prefix = make([]int, m+1)
		for i, l := range loads {
			st.prefix[i+1] = st.prefix[i] + l
		}
		got := -1
		for j := 1; j <= m-1; j++ {
			if thr := st.throughputAt(j); thr > got {
				got = thr
			}
		}
		if got != best {
			t.Fatalf("trial %d: scan best %d != brute force %d", trial, got, best)
		}
	}
}

func TestMLTSinglePeerAndTinyTrees(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	if err := net.JoinPeer("solo_peer_id", 10, r); err != nil {
		t.Fatal(err)
	}
	moved, err := (MLT{}).Periodic(net, "solo_peer_id")
	if err != nil || moved {
		t.Fatalf("single peer must be a no-op: %v %v", moved, err)
	}
	// Two peers, one node: still degenerate.
	if err := net.JoinPeer("zzz_peer_idab", 10, r); err != nil {
		t.Fatal(err)
	}
	if err := net.InsertKey("abc", r); err != nil {
		t.Fatal(err)
	}
	for _, id := range net.PeerIDs() {
		moved, err := (MLT{}).Periodic(net, id)
		if err != nil {
			t.Fatal(err)
		}
		if moved {
			t.Fatalf("one shared node cannot be rebalanced")
		}
	}
}

func TestMLTUnknownPeerIsNoop(t *testing.T) {
	// A peer renamed earlier in the same balancing round disappears
	// from id snapshots; Periodic must treat that as a no-op.
	net, _, _ := buildLoaded(t, 5, []int{10, 10}, 10, 20)
	moved, err := (MLT{}).Periodic(net, "missing_peer")
	if err != nil || moved {
		t.Fatalf("unknown peer must be a graceful no-op: %v %v", moved, err)
	}
}

func TestMLTRepeatedConverges(t *testing.T) {
	net, _, ks := buildLoaded(t, 6, []int{40, 10, 20, 30}, 60, 400)
	r := rand.New(rand.NewSource(60))
	// Iterating MLT with a fixed load history must stop moving.
	for round := 0; round < 20; round++ {
		anyMoved := false
		for _, id := range net.PeerIDs() {
			moved, err := (MLT{}).Periodic(net, id)
			if err != nil {
				t.Fatal(err)
			}
			anyMoved = anyMoved || moved
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !anyMoved {
			break
		}
		if round == 19 {
			t.Fatalf("MLT oscillates with fixed history")
		}
	}
	// Keys stay reachable after all the boundary moves.
	for _, k := range ks[:10] {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("key %q lost after balancing", k)
		}
	}
}

func TestEqualLoadMoves(t *testing.T) {
	net, _, _ := buildLoaded(t, 7, []int{40, 10, 40, 10}, 60, 500)
	movedAny := false
	for _, id := range net.PeerIDs() {
		moved, err := (EqualLoad{}).Periodic(net, id)
		if err != nil {
			t.Fatal(err)
		}
		movedAny = movedAny || moved
		if err := net.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !movedAny {
		t.Logf("note: EqualLoad applied no move on this seed")
	}
}

func TestKChoicesPlacesAtBestCandidate(t *testing.T) {
	net, r, _ := buildLoaded(t, 8, []int{40, 10, 40, 10}, 60, 500)
	kc := KChoices{K: 4}
	id := kc.PlaceJoin(net, r, 25)
	if _, exists := net.Peer(id); exists {
		t.Fatalf("candidate id collides with existing peer")
	}
	if err := net.JoinPeer(id, 25, r); err != nil {
		t.Fatalf("join at chosen position: %v", err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKChoicesDefaultK(t *testing.T) {
	net, r, _ := buildLoaded(t, 9, []int{10, 10}, 20, 50)
	kc := KChoices{} // K unset -> default 4
	id := kc.PlaceJoin(net, r, 10)
	if id == keys.Epsilon {
		t.Fatalf("PlaceJoin returned empty id")
	}
}

// TestKChoicesBeatsRandomOnAverage verifies the KC premise: the
// predicted pair throughput of the chosen position is at least that
// of a random single candidate (statistically).
func TestKChoicesBeatsRandomOnAverage(t *testing.T) {
	net, r, _ := buildLoaded(t, 10, []int{40, 10, 40, 10, 40, 10}, 80, 800)
	kc := KChoices{K: 4}
	sumBest, sumRand := 0, 0
	for i := 0; i < 60; i++ {
		idBest := kc.PlaceJoin(net, r, 25)
		idRand := randomID(net, r)
		sumBest += kc.score(net, idBest, 25)
		sumRand += kc.score(net, idRand, 25)
	}
	if sumBest < sumRand {
		t.Fatalf("k-choices scored %d below random %d", sumBest, sumRand)
	}
}

func TestDirectoryOnlyDirectorActs(t *testing.T) {
	net, _, _ := buildLoaded(t, 12, []int{40, 10, 40, 10}, 60, 500)
	dir := Directory{}
	ids := net.PeerIDs()
	// Non-director peers are no-ops.
	for _, id := range ids[1:] {
		moved, err := dir.Periodic(net, id)
		if err != nil || moved {
			t.Fatalf("non-director %q acted: %v %v", id, moved, err)
		}
	}
	// The director may trigger moves; the overlay must stay valid.
	if _, err := dir.Periodic(net, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryFewerMovesThanMLT(t *testing.T) {
	countMoves := func(strategy Strategy, seed int64) int {
		net, _, _ := buildLoaded(t, seed, []int{40, 10, 40, 10, 40, 10, 40, 10}, 80, 600)
		moves := 0
		for _, id := range net.PeerIDs() {
			moved, err := strategy.Periodic(net, id)
			if err != nil {
				t.Fatal(err)
			}
			if moved {
				moves++
			}
		}
		return moves
	}
	mlt := countMoves(MLT{}, 13)
	dir := countMoves(Directory{Stride: 2, Moves: 2}, 13)
	t.Logf("boundary-move rounds: MLT=%d Directory=%d", mlt, dir)
	if dir > mlt && mlt > 0 {
		t.Fatalf("semi-centralized scheduling should not move more than MLT everywhere")
	}
}

func TestDirectoryPlaceJoinAndName(t *testing.T) {
	net, r, _ := buildLoaded(t, 14, []int{10, 10}, 20, 50)
	d := Directory{}
	if d.Name() != "Directory" {
		t.Fatalf("Name = %q", d.Name())
	}
	id := d.PlaceJoin(net, r, 10)
	if _, exists := net.Peer(id); exists {
		t.Fatalf("PlaceJoin returned existing id")
	}
}

func TestMLTWithWrappedRange(t *testing.T) {
	// Force the minimum peer to host wrapped keys (keys above the
	// maximum peer id) and check MLT still produces a valid state.
	r := rand.New(rand.NewSource(11))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	// Two peers with low ids: every key above "b..." wraps to the min.
	for _, id := range []keys.Key{"aaaaaaaaaaaa", "bbbbbbbbbbbb"} {
		if err := net.JoinPeer(id, 10, r); err != nil {
			t.Fatal(err)
		}
	}
	var ks []keys.Key
	for i := 0; i < 30; i++ {
		k := keys.LowerAlnum.RandomKey(r, 2, 6)
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	net.ResetUnit()
	for i := 0; i < 200; i++ {
		net.DiscoverRandom(ks[r.Intn(len(ks))], true, r)
	}
	net.ResetUnit()
	for _, id := range net.PeerIDs() {
		if _, err := (MLT{}).Periodic(net, id); err != nil {
			t.Fatalf("MLT on wrapped range: %v", err)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("invalid after wrapped MLT: %v", err)
		}
	}
	for _, k := range ks {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("key %q lost", k)
		}
	}
}

// fullScanMLT is MLT without any shortcut: every pair gathers, sorts
// and scans all of its candidate boundaries.
type fullScanMLT struct{ MLT }

func (fullScanMLT) Periodic(net *core.Network, sID keys.Key) (bool, error) {
	st, ok, err := gatherPair(net, sID)
	if err != nil || !ok {
		return false, err
	}
	best, bestThr := st.split, st.throughputAt(st.split)
	for j := 1; j <= len(st.nodes)-1; j++ {
		if thr := st.throughputAt(j); thr > bestThr {
			best, bestThr = j, thr
		}
	}
	if best == st.split {
		return false, nil
	}
	return true, st.apply(net, best)
}

// TestMLTRoundMatchesFullScan runs RunRound(MLT) and RunRound over the
// full scan on twin random networks and requires the same outcome after
// every round: the ring, the hosting of every node, the replica
// placement, the traffic counters and the move count. Each peer's load
// is zero, under its capacity, exactly its capacity or over it, and
// capacities go down to 1, so pairs with neither, one or both peers
// saturated all occur.
func TestMLTRoundMatchesFullScan(t *testing.T) {
	build := func(seed int64) *core.Network {
		r := rand.New(rand.NewSource(seed))
		net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
		maxCap := []int{1, 3, 20}[r.Intn(3)]
		for i, n := 0, 2+r.Intn(9); i < n; i++ {
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1+r.Intn(maxCap), r); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := 0, 4+r.Intn(60); i < n; i++ {
			if err := net.InsertKey(keys.LowerAlnum.RandomKey(r, 1, 6), r); err != nil {
				t.Fatal(err)
			}
		}
		net.Replicate()
		return net
	}
	// setLoads draws each peer's previous-unit load from r and spreads
	// it over the peer's nodes in key order.
	setLoads := func(net *core.Network, r *rand.Rand) {
		for _, id := range net.PeerIDs() {
			p, _ := net.Peer(id)
			ns := slices.Clone(p.Nodes())
			slices.SortFunc(ns, func(a, b *core.Node) int { return cmp.Compare(a.Key, b.Key) })
			total := 0
			switch r.Intn(4) {
			case 1:
				total = r.Intn(p.Capacity + 1)
			case 2:
				total = p.Capacity
			case 3:
				total = p.Capacity + 1 + r.Intn(2*p.Capacity+1)
			}
			for _, n := range ns {
				n.LoadPrev = 0
			}
			for ; total > 0 && len(ns) > 0; total-- {
				ns[r.Intn(len(ns))].LoadPrev++
			}
		}
	}
	state := func(net *core.Network) string {
		var b strings.Builder
		for _, id := range net.PeerIDs() {
			p, _ := net.Peer(id)
			ks := make([]string, 0, p.NumNodes())
			for _, n := range p.Nodes() {
				holder, _ := net.ReplicaHolder(n.Key)
				ks = append(ks, fmt.Sprintf("%s>%s", n.Key, holder))
			}
			slices.Sort(ks)
			fmt.Fprintf(&b, "%s/%d%v\n", id, p.Capacity, ks)
		}
		fmt.Fprintf(&b, "%+v %+v", net.Counters, net.Replication)
		return b.String()
	}
	moved := 0
	for seed := int64(0); seed < 300; seed++ {
		skip, full := build(seed), build(seed)
		rs, rf := rand.New(rand.NewSource(-seed)), rand.New(rand.NewSource(-seed))
		for round := 0; round < 3; round++ {
			setLoads(skip, rs)
			setLoads(full, rf)
			ms, errS := RunRound(skip, MLT{})
			mf, errF := RunRound(full, fullScanMLT{})
			if errS != nil || errF != nil {
				t.Fatalf("seed %d round %d: %v / %v", seed, round, errS, errF)
			}
			if ms != mf {
				t.Fatalf("seed %d round %d: %d moves, the full scan made %d", seed, round, ms, mf)
			}
			if got, want := state(skip), state(full); got != want {
				t.Fatalf("seed %d round %d: state differs from the full scan's\n got %s\nwant %s", seed, round, got, want)
			}
			if err := skip.Validate(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			moved += ms
		}
	}
	if moved == 0 {
		t.Fatal("no round moved a boundary: the comparison saw only no-op rounds")
	}
}

// TestAllocsPerRound is the allocation budget of an MLT round over a
// network where no peer is saturated: every pair is skipped before the
// scan, and the round allocates only its snapshot of the peer ids.
func TestAllocsPerRound(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	capacities := make([]int, 64)
	for i := range capacities {
		capacities[i] = 1 << 20
	}
	net, _, _ := buildLoaded(t, 15, capacities, 2000, 4000)
	allocs := testing.AllocsPerRun(100, func() {
		if moves, err := RunRound(net, MLT{}); moves != 0 || err != nil {
			t.Fatalf("unsaturated round: %d moves, %v", moves, err)
		}
	})
	t.Logf("%.2f allocs per round", allocs)
	const ceiling = 2
	if allocs > ceiling {
		t.Fatalf("%.2f allocs per round, ceiling %d", allocs, ceiling)
	}
}
