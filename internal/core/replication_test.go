package core

import (
	"math/rand"
	"testing"

	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

func TestReplicateCounts(t *testing.T) {
	net, r := buildNetwork(t, 5, 1<<30, 41)
	for _, k := range workload.GridCorpus(50) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	n := net.Replicate()
	if n != net.NumNodes() {
		t.Fatalf("replicated %d of %d nodes", n, net.NumNodes())
	}
	if net.Replication.SnapshotMsgs != n {
		t.Fatalf("snapshot counter = %d", net.Replication.SnapshotMsgs)
	}
}

func TestFailPeerErrors(t *testing.T) {
	net, _ := buildNetwork(t, 1, 10, 42)
	if err := net.FailPeer("ghost"); err == nil {
		t.Fatalf("failing unknown peer must error")
	}
	if err := net.FailPeer(net.PeerIDs()[0]); err == nil {
		t.Fatalf("failing the last peer must error")
	}
}

func TestCrashRecoveryFullReplica(t *testing.T) {
	net, r := buildNetwork(t, 10, 1<<30, 43)
	corpus := workload.GridCorpus(200)
	for _, k := range corpus {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	// Crash three peers with a replication tick before each failure:
	// successor replication tolerates one failure per replication
	// window (the crash also destroys the replica set the victim held
	// for its predecessor, and a host and its successor dying in one
	// window lose the single replica).
	restored := 0
	for i := 0; i < 3; i++ {
		net.Replicate()
		ids := net.PeerIDs()
		if err := net.FailPeer(ids[r.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
		got, lost := net.Recover()
		if len(lost) != 0 {
			t.Fatalf("fully replicated crash %d lost nodes %v", i, lost)
		}
		restored += got
	}
	if restored == 0 {
		t.Fatalf("nothing restored")
	}
	mustValidate(t, net)
	for _, k := range corpus {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("key %q lost after recovery", k)
		}
	}
}

func TestCrashRecoveryPartialReplica(t *testing.T) {
	net, r := buildNetwork(t, 10, 1<<30, 44)
	corpus := workload.GridCorpus(300)
	replicated := corpus[:200]
	late := corpus[200:]
	for _, k := range replicated {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	// Insertions after the snapshot are at risk.
	for _, k := range late {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		ids := net.PeerIDs()
		if err := net.FailPeer(ids[r.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	_, lost := net.Recover()
	mustValidate(t, net)
	lostSet := make(map[keys.Key]bool, len(lost))
	for _, k := range lost {
		lostSet[k] = true
	}
	// Every replicated key survives unless both its host and the
	// successor holding its replica crashed in this window — in which
	// case the loss report must name it.
	for _, k := range replicated {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied && !lostSet[k] {
			t.Fatalf("replicated key %q lost without being reported", k)
		}
	}
	// Late keys either survive (their host did not crash) or are
	// cleanly absent — discovery must terminate without error.
	missing := 0
	for _, k := range late {
		res := net.DiscoverRandom(k, false, r)
		if !res.Satisfied {
			missing++
			// The loss report must name every missing key precisely.
			if !lostSet[k] {
				t.Fatalf("missing key %q not in the lost set %v", k, lost)
			}
			// A lost key can be re-declared.
			if err := net.InsertKey(k, r); err != nil {
				t.Fatalf("re-insert of %q: %v", k, err)
			}
		}
	}
	t.Logf("late keys missing after crash: %d/%d (store lost %d nodes)",
		missing, len(late), len(lost))
	mustValidate(t, net)
	for _, k := range late {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("re-declared key %q still missing", k)
		}
	}
}

func TestCrashWithoutAnyReplication(t *testing.T) {
	net, r := buildNetwork(t, 8, 1<<30, 45)
	corpus := workload.GridCorpus(150)
	for _, k := range corpus {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	ids := net.PeerIDs()
	if err := net.FailPeer(ids[0]); err != nil {
		t.Fatal(err)
	}
	restored, _ := net.Recover()
	if restored != 0 {
		t.Fatalf("nothing was replicated, yet %d restored", restored)
	}
	mustValidate(t, net)
	// Survivors remain discoverable.
	found := 0
	for _, k := range corpus {
		if res := net.DiscoverRandom(k, false, r); res.Satisfied {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("all keys lost from one crash")
	}
}

func TestRepeatedCrashRecoverCycles(t *testing.T) {
	net, r := buildNetwork(t, 12, 1<<30, 46)
	corpus := workload.GridCorpus(250)
	for _, k := range corpus {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 6; cycle++ {
		net.Replicate()
		ids := net.PeerIDs()
		if err := net.FailPeer(ids[r.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
		if _, lost := net.Recover(); len(lost) != 0 {
			t.Fatalf("cycle %d lost replicated nodes %v", cycle, lost)
		}
		// Replace the capacity by joining a fresh peer (repair must
		// precede tree-routed operations).
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<30, r); err != nil {
			t.Fatal(err)
		}
		mustValidate(t, net)
	}
	for _, k := range corpus {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("key %q lost across cycles", k)
		}
	}
	if net.Replication.Failures != 6 {
		t.Fatalf("failure counter = %d", net.Replication.Failures)
	}
}

func TestRecoveryAfterRootHostCrash(t *testing.T) {
	net, r := buildNetwork(t, 6, 1<<30, 47)
	for _, k := range []keys.Key{"dgemm", "dgemv", "sgemm", "saxpy"} {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	rootKey, ok := net.Root()
	if !ok {
		t.Fatal("no root")
	}
	host, _ := net.HostOf(rootKey)
	if err := net.FailPeer(host); err != nil {
		t.Fatal(err)
	}
	if _, lost := net.Recover(); len(lost) != 0 {
		t.Fatalf("lost %v", lost)
	}
	mustValidate(t, net)
	if _, ok := net.Root(); !ok {
		t.Fatalf("root not restored")
	}
	for _, k := range []keys.Key{"dgemm", "dgemv", "sgemm", "saxpy"} {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("key %q lost", k)
		}
	}
}

func TestRecoverNoFailureIsNoop(t *testing.T) {
	net, r := buildNetwork(t, 4, 1<<30, 48)
	for _, k := range workload.GridCorpus(40) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	restored, lost := net.Recover()
	if restored != 0 || len(lost) != 0 {
		t.Fatalf("no-failure recover restored=%d lost=%v", restored, lost)
	}
	mustValidate(t, net)
}

// TestPropCrashRecoveryRandomized drives random crash/recover cycles
// mixed with inserts and churn, validating after every event.
func TestPropCrashRecoveryRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	net, _ := buildNetwork(t, 10, 1<<30, 50)
	replicatedKeys := make(map[keys.Key]bool)
	var sinceSnapshot []keys.Key
	for step := 0; step < 120; step++ {
		switch r.Intn(6) {
		case 0, 1, 2:
			k := keys.LowerAlnum.RandomKey(r, 2, 8)
			if err := net.InsertKey(k, r); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			sinceSnapshot = append(sinceSnapshot, k)
		case 3:
			net.Replicate()
			for _, k := range sinceSnapshot {
				replicatedKeys[k] = true
			}
			sinceSnapshot = nil
		case 4:
			if net.NumPeers() > 3 {
				ids := net.PeerIDs()
				if err := net.FailPeer(ids[r.Intn(len(ids))]); err != nil {
					t.Fatalf("step %d fail: %v", step, err)
				}
				net.Recover()
				// Keys inserted after the last snapshot may be gone.
				sinceSnapshot = nil
			}
		case 5:
			if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<30, r); err != nil {
				t.Fatalf("step %d join: %v", step, err)
			}
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for k := range replicatedKeys {
		if res := net.DiscoverRandom(k, false, r); !res.Satisfied {
			t.Fatalf("replicated key %q lost", k)
		}
	}
}

// TestReplicaSuccessorPlacement pins the placement rule: after a
// Replicate tick every node's snapshot lives on its host's ring
// successor, never globally.
func TestReplicaSuccessorPlacement(t *testing.T) {
	net, r := buildNetwork(t, 8, 1<<30, 51)
	for _, k := range workload.GridCorpus(120) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	if n := net.Replicate(); n != net.NumNodes() {
		t.Fatalf("replicated %d of %d nodes", n, net.NumNodes())
	}
	if net.NumReplicas() != net.NumNodes() {
		t.Fatalf("replica store holds %d of %d nodes", net.NumReplicas(), net.NumNodes())
	}
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		succ, _ := net.Ring().Successor(id)
		for _, n := range p.Nodes() {
			k := n.Key
			loc, ok := net.ReplicaHolder(k)
			if !ok {
				t.Fatalf("node %q has no replica", k)
			}
			if loc != succ {
				t.Fatalf("replica of %q (host %q) on %q, want successor %q", k, id, loc, succ)
			}
		}
	}
	mustValidate(t, net)
}

// TestReplicaRehomingOnChurn requires topology changes to move the
// affected replica sets and pay for it: joins and leaves after a
// replication tick must produce nonzero transfer traffic, and the
// successor rule must hold again afterwards.
func TestReplicaRehomingOnChurn(t *testing.T) {
	net, r := buildNetwork(t, 6, 1<<30, 52)
	for _, k := range workload.GridCorpus(150) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	base := net.Replication
	for i := 0; i < 4; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 1<<30, r); err != nil {
			t.Fatal(err)
		}
		mustValidate(t, net)
	}
	afterJoins := net.Replication
	if afterJoins.TransferredNodes <= base.TransferredNodes {
		t.Fatalf("joins moved no replicas: %+v", afterJoins)
	}
	ids := net.PeerIDs()
	if err := net.LeavePeer(ids[r.Intn(len(ids))]); err != nil {
		t.Fatal(err)
	}
	mustValidate(t, net)
	if net.Replication.TransferMsgs <= afterJoins.TransferMsgs {
		t.Fatalf("leave moved no replica batches: %+v", net.Replication)
	}
}

// TestCrashLosesHeldReplicaSet pins the successor-replication
// trade-off: crashing a peer loses the replica set it held for its
// predecessor, so the predecessor's nodes are unprotected until the
// next Replicate — but the crashed peer's own nodes recover from
// their replicas on its successor.
func TestCrashLosesHeldReplicaSet(t *testing.T) {
	net, r := buildNetwork(t, 6, 1<<30, 53)
	for _, k := range workload.GridCorpus(100) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	total := net.NumReplicas()
	// Find a victim that holds a non-empty replica set.
	var victim keys.Key
	held := 0
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		if p.NumReplicas() > 0 {
			victim, held = id, p.NumReplicas()
			break
		}
	}
	if held == 0 {
		t.Fatal("no peer holds replicas")
	}
	if err := net.FailPeer(victim); err != nil {
		t.Fatal(err)
	}
	if got := net.NumReplicas(); got != total-held {
		t.Fatalf("replica store %d after crash, want %d-%d", got, total, held)
	}
	if _, lost := net.Recover(); len(lost) != 0 {
		t.Fatalf("replicated crash lost %v", lost)
	}
	mustValidate(t, net)
	// The next tick re-protects everything.
	net.Replicate()
	if net.NumReplicas() != net.NumNodes() {
		t.Fatalf("re-replication incomplete: %d of %d", net.NumReplicas(), net.NumNodes())
	}
	mustValidate(t, net)
}

// TestRecoverReportsLostKeysExactly crashes a peer holding keys
// declared after the last snapshot and requires the lost-key report
// to name exactly the keys that vanished.
func TestRecoverReportsLostKeysExactly(t *testing.T) {
	net, r := buildNetwork(t, 5, 1<<30, 54)
	for _, k := range workload.GridCorpus(60) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	late := []keys.Key{"zzlate0", "zzlate1", "zzlate2", "zzlate3", "zzlate4", "zzlate5"}
	for _, k := range late {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the host of the late keys' region.
	host, _ := net.HostOf("zzlate0")
	if err := net.FailPeer(host); err != nil {
		t.Fatal(err)
	}
	_, lost := net.Recover()
	mustValidate(t, net)
	lostSet := make(map[keys.Key]bool, len(lost))
	for _, k := range lost {
		lostSet[k] = true
	}
	for _, k := range late {
		res := net.DiscoverRandom(k, false, r)
		if res.Satisfied == lostSet[k] {
			t.Fatalf("key %q: satisfied=%v but lost-set=%v (%v)",
				k, res.Satisfied, lostSet[k], lost)
		}
	}
}

// TestPersistStateUnion pins the snapshot content rule: the durable
// state is the union of the replica store and the live tree's data
// nodes, so a key declared after the last Replicate is persisted (it
// has no replica yet) and a crashed, unrecovered key is persisted too
// (it exists only as a replica).
func TestPersistStateUnion(t *testing.T) {
	net, r := buildNetwork(t, 5, 1<<30, 55)
	for _, k := range workload.GridCorpus(40) {
		if err := net.InsertKey(k, r); err != nil {
			t.Fatal(err)
		}
	}
	net.Replicate()
	if err := net.InsertKey("zzfreshkey", r); err != nil {
		t.Fatal(err)
	}
	host, _ := net.HostOf("aces4")
	if err := net.FailPeer(host); err != nil {
		t.Fatal(err)
	}
	_, nodes := net.PersistState()
	have := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		have[n.Key] = true
	}
	if !have["zzfreshkey"] {
		t.Fatal("unreplicated live key missing from persist state")
	}
	// Every replicated key survives in the persist state even while
	// its host is crashed and unrecovered.
	for _, k := range workload.GridCorpus(40) {
		if !have[string(k)] {
			t.Fatalf("replicated key %q missing from persist state", k)
		}
	}
}
