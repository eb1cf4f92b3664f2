package core_test

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// TestTickShipsChanges holds a replication tick on the TestBytesPerKey
// overlay to what changed since the previous one: after the first tick
// has shipped every node, an idle tick ships nothing, and W fresh
// registrations (or W unregistrations) make the next tick ship at least
// the W nodes written and at most the four nodes a write can change
// (the key's node, a branch node, the father and the sibling it
// relinks). Discoveries load the nodes they visit: the next tick ships
// them, a tick after it nothing while their loads hold, the tick after
// a unit reset ships them again (their history moved), and then
// nothing.
func TestTickShipsChanges(t *testing.T) {
	net, corpus, r, _ := gridNetwork(t)
	if n := net.Replicate(); n != net.NumNodes() {
		t.Fatalf("first tick shipped %d of %d nodes", n, net.NumNodes())
	}
	idle := func(when string) {
		t.Helper()
		if n := net.Replicate(); n != 0 {
			t.Fatalf("idle tick %s shipped %d snapshots", when, n)
		}
	}
	idle("after the first")

	const w = 200
	fresh := make([]keys.Key, w)
	for i := range fresh {
		fresh[i] = corpus[i*97%len(corpus)] + "zz"
		if err := net.InsertKey(fresh[i], r); err != nil {
			t.Fatal(err)
		}
	}
	if n := net.Replicate(); n < w || n > 4*w {
		t.Fatalf("tick after %d registrations shipped %d snapshots", w, n)
	}
	idle("after the registrations")
	for _, k := range fresh {
		if !net.RemoveData(k, string(k)) {
			t.Fatalf("unregister %q: not registered", k)
		}
	}
	if n := net.Replicate(); n > 4*w {
		t.Fatalf("tick after %d unregistrations shipped %d snapshots", w, n)
	}
	if net.NumReplicas() != net.NumNodes() {
		t.Fatalf("%d replicas of %d nodes after compaction", net.NumReplicas(), net.NumNodes())
	}
	idle("after the unregistrations")

	visited := 0
	for i := 0; i < w; i++ {
		res := net.DiscoverRandom(corpus[i*31%len(corpus)], false, r)
		visited += res.LogicalHops + 1
	}
	if n := net.Replicate(); n == 0 || n > visited {
		t.Fatalf("tick after %d discoveries (%d visits) shipped %d snapshots", w, visited, n)
	}
	idle("after the discoveries")
	net.ResetUnit()
	if n := net.Replicate(); n == 0 || n > visited {
		t.Fatalf("tick after a unit reset shipped %d snapshots, %d visits", n, visited)
	}
	idle("after the unit reset")
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaGoneInFlightIsCompacted covers the concurrent engines'
// tick, whose batches are installed after the plan released the lock:
// a node removed in between has its snapshot installed all the same,
// and the tick's compaction must drop it.
func TestReplicaGoneInFlightIsCompacted(t *testing.T) {
	net, corpus, r, _ := gridNetwork(t)
	net.Replicate()
	fresh := corpus[0] + "zz"
	if err := net.InsertKey(fresh, r); err != nil {
		t.Fatal(err)
	}
	plan := net.ReplicaPlan()
	if !net.RemoveData(fresh, string(fresh)) {
		t.Fatalf("unregister %q: not registered", fresh)
	}
	for _, b := range plan {
		net.AcceptReplicas(b)
	}
	net.CompactReplicas()
	if _, ok := net.ReplicaHolder(fresh); ok {
		t.Fatalf("the replica of %q, removed while its batch was in flight, survived compaction", fresh)
	}
	net.Replicate()
	if err := core.CheckReplicaStore(net); err != nil {
		t.Fatal(err)
	}
}

// TestLateBatchIsReshipped covers a batch that reaches its target after
// a later tick's, as a REPLICA frame can when its connection fails after
// delivery and the sender installs it itself: the late, older snapshot
// overwrites the newer one, and the next tick must ship the node again.
func TestLateBatchIsReshipped(t *testing.T) {
	net, corpus, r, _ := gridNetwork(t)
	net.Replicate()
	fresh := corpus[0] + "zz"
	if err := net.InsertKey(fresh, r); err != nil {
		t.Fatal(err)
	}
	late := net.ReplicaPlan()
	if err := net.InsertData(fresh, "second", r); err != nil {
		t.Fatal(err)
	}
	net.Replicate()
	for _, b := range late {
		net.AcceptReplicas(b)
	}
	if n := net.Replicate(); n == 0 {
		t.Fatal("the tick after a late batch shipped nothing")
	}
	if err := core.CheckReplicaStore(net); err != nil {
		t.Fatal(err)
	}
}

// TestStaleBatchCannotResurrect covers an unregister that lands between
// a tick's plan and its install, as one can on the concurrent engines:
// the batch still carries the value, and a crash of the node's host
// before the next tick must not bring it back.
func TestStaleBatchCannotResurrect(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for i := 0; i < 6; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 100, r); err != nil {
			t.Fatal(err)
		}
	}
	corpus := workload.GridCorpus(200)
	for _, k := range corpus {
		if err := net.InsertData(k, string(k), r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	key := corpus[len(corpus)/2]
	if err := net.InsertData(key, "extra", r); err != nil {
		t.Fatal(err)
	}
	plan := net.ReplicaPlan()
	if !net.RemoveData(key, "extra") {
		t.Fatalf("unregister of %q failed", key)
	}
	for _, b := range plan {
		net.AcceptReplicas(b)
	}
	_, host, _ := net.NodeAt(key)
	if err := net.FailPeer(host.ID); err != nil {
		t.Fatal(err)
	}
	net.Recover()
	if n, _, ok := net.NodeAt(key); ok && slices.Contains(n.Data, "extra") {
		t.Fatalf("unregistered value \"extra\" of %q is back after a crash", key)
	}
}

// BenchmarkReplicaTick times one replication tick on TestBytesPerKey's
// grid overlay, between ticks shaped like churn-live's: 250
// register/unregister pairs of versioned keys (64 of them registered at
// any time) and 500 hot-spot discoveries, with a unit reset before every
// fourth tick. Only the tick is timed: plan, install and compaction. It
// reports ns/tick, the snapshots a tick ships and its allocations.
func BenchmarkReplicaTick(b *testing.B) {
	net, corpus, r, _ := gridNetwork(b)
	net.Replicate()
	const lag = 64
	versioned := func(i int) keys.Key {
		return corpus[i*7919%len(corpus)] + keys.Key("w"+strconv.Itoa(i))
	}
	for i := 0; i < lag; i++ {
		if err := net.InsertData(versioned(i), "v", r); err != nil {
			b.Fatal(err)
		}
	}
	hot, next, shipped := workload.Figure8Schedule(), lag, 0
	b.ReportAllocs()
	b.ResetTimer()
	for tick := 0; tick < b.N; tick++ {
		b.StopTimer()
		if tick%4 == 0 {
			net.ResetUnit()
		}
		for i := 0; i < 250; i++ {
			if err := net.InsertData(versioned(next), "v", r); err != nil {
				b.Fatal(err)
			}
			if !net.RemoveData(versioned(next-lag), "v") {
				b.Fatalf("unregister %q: not registered", versioned(next-lag))
			}
			next++
		}
		for i := 0; i < 500; i++ {
			net.DiscoverRandom(hot.Pick(r, corpus, 60), false, r)
		}
		b.StartTimer()
		shipped += net.Replicate()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
	b.ReportMetric(float64(shipped)/float64(b.N), "snapshots/tick")
}
