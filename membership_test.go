package dlpt

// Failure-injection and differential tests of the membership
// subsystem: an identical scripted join/leave/crash/recover workload
// must leave byte-identical catalogues on all three engines, a crash
// without recovery must degrade the tree, and recovery must restore
// every replicated key while MembershipStats counts the losses.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// busiestPeer returns the id of the peer hosting the most tree nodes
// (ties to the lowest id), i.e. a crash victim guaranteed to degrade
// the tree.
func busiestPeer(t *testing.T, reg *Registry) string {
	t.Helper()
	infos, err := reg.Peers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	best := -1
	id := ""
	for _, p := range infos {
		if p.Nodes > best {
			best, id = p.Nodes, p.ID
		}
	}
	if best < 1 {
		t.Fatal("no peer hosts any node")
	}
	return id
}

// catalogue serializes the full observable catalogue: Services plus
// every service's endpoints, as Discover returns them.
func catalogue(t *testing.T, reg *Registry) string {
	t.Helper()
	ctx := context.Background()
	svcs, err := reg.Services(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "services %v\n", svcs)
	for _, name := range svcs {
		svc, ok, err := reg.Discover(ctx, name)
		if err != nil || !ok {
			t.Fatalf("Discover(%q) = %v, %v", name, ok, err)
		}
		fmt.Fprintf(&b, "endpoints %s %v\n", name, svc.Endpoints)
	}
	return b.String()
}

// runMembershipWorkload drives the scripted membership workload on
// one engine and returns the engine-independent transcript.
func runMembershipWorkload(t *testing.T, kind EngineKind) string {
	t.Helper()
	ctx := context.Background()
	reg := newRegistry(t, 8, WithSeed(17), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
	var b strings.Builder

	// Phase 1: seed the catalogue and grow with heterogeneous
	// capacities (AddPeerWithCapacity satellite).
	corpus := workload.GridCorpus(48)
	batch := make([]Registration, len(corpus))
	for i, k := range corpus {
		batch[i] = Registration{Name: string(k), Endpoint: "ep://" + string(k)}
	}
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	var added []string
	for _, capa := range []int{64, 256, 1024} {
		id, err := reg.AddPeerWithCapacity(ctx, capa)
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, id)
	}
	infos, err := reg.Peers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	caps := make(map[int]int)
	for _, p := range infos {
		caps[p.Capacity]++
	}
	fmt.Fprintf(&b, "phase1 peers=%d cap64=%d cap256=%d cap1024=%d\n",
		len(infos), caps[64], caps[256], caps[1024])

	// Phase 2: graceful departures hand nodes off; the catalogue must
	// not change.
	for _, id := range added[:2] {
		if err := reg.RemovePeer(ctx, id); err != nil {
			t.Fatalf("%s: remove %q: %v", kind, id, err)
		}
	}
	if err := reg.Validate(ctx); err != nil {
		t.Fatalf("%s: validate after leaves: %v", kind, err)
	}
	fmt.Fprintf(&b, "phase2 peers=%d nodes=%d\n%s", reg.NumPeers(), reg.NumNodes(),
		catalogue(t, reg))

	// Phase 3: replicate, crash the busiest peer, recover. Everything
	// was replicated, so nothing may be lost.
	replicated, err := reg.Replicate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "phase3 replicated=%d\n", replicated)
	preNodes := reg.NumNodes()
	victim := busiestPeer(t, reg)
	if err := reg.CrashPeer(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if got := reg.NumNodes(); got >= preNodes {
		t.Fatalf("%s: crash did not degrade: %d nodes, was %d", kind, got, preNodes)
	}
	rep, err := reg.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored == 0 {
		t.Fatalf("%s: recovery restored nothing", kind)
	}
	fmt.Fprintf(&b, "phase3 lost=%d nodes=%d\n%s", rep.Lost, reg.NumNodes(),
		catalogue(t, reg))
	if err := reg.Validate(ctx); err != nil {
		t.Fatalf("%s: validate after recovery: %v", kind, err)
	}

	// Phase 4: declare keys after the replication tick, crash again
	// without a fresh Replicate: the stale snapshots must bring every
	// phase-1 key back, while unreplicated keys may be lost — and the
	// stats must count them.
	extra := []string{"zzchurn0", "zzchurn1", "zzchurn2", "zzchurn3",
		"zzchurn4", "zzchurn5", "zzchurn6", "zzchurn7"}
	for _, k := range extra {
		if err := reg.Register(ctx, k, "ep://"+k); err != nil {
			t.Fatal(err)
		}
	}
	victim = busiestPeer(t, reg)
	if err := reg.CrashPeer(ctx, victim); err != nil {
		t.Fatal(err)
	}
	rep, err = reg.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	svcs, err := reg.Services(ctx)
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(svcs))
	for _, s := range svcs {
		have[s] = true
	}
	for _, k := range corpus {
		if !have[string(k)] {
			t.Fatalf("%s: replicated key %q not restored", kind, k)
		}
	}
	missing := 0
	for _, k := range extra {
		if !have[k] {
			missing++
		}
	}
	if missing > rep.Lost {
		t.Fatalf("%s: %d unreplicated keys missing but only %d nodes counted lost",
			kind, missing, rep.Lost)
	}
	ms, err := reg.MembershipStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ms.LostNodes < missing {
		t.Fatalf("%s: stats count %d lost, at least %d keys missing", kind, ms.LostNodes, missing)
	}
	// Re-register the survivors' complement so every engine converges
	// to the same catalogue again.
	for _, k := range extra {
		if !have[k] {
			if err := reg.Register(ctx, k, "ep://"+k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := reg.Validate(ctx); err != nil {
		t.Fatalf("%s: validate after re-register: %v", kind, err)
	}
	fmt.Fprintf(&b, "phase4 nodes=%d\n%s", reg.NumNodes(), catalogue(t, reg))

	// Phase 5: balancing rounds must not change the catalogue. The
	// EqualLoad round applies real boundary moves (it is
	// capacity-blind), driving the mailbox/address rewiring of the
	// concurrent engines.
	if err := reg.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"MLT", "EqualLoad"} {
		if _, err := reg.Balance(ctx, strategy); err != nil {
			t.Fatal(err)
		}
		if err := reg.Validate(ctx); err != nil {
			t.Fatalf("%s: validate after %s balance: %v", kind, strategy, err)
		}
	}
	fmt.Fprintf(&b, "phase5 nodes=%d\n%s", reg.NumNodes(), catalogue(t, reg))

	// Engine-independent lifecycle counters close the transcript.
	ms, err = reg.MembershipStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "stats joins=%d leaves=%d crashes=%d recoveries=%d\n",
		ms.Joins, ms.Leaves, ms.Crashes, ms.Recoveries)
	return b.String()
}

// TestMembershipDifferential requires the three engines to answer the
// identical scripted membership workload with byte-identical
// catalogues and counters.
func TestMembershipDifferential(t *testing.T) {
	transcripts := make(map[EngineKind]string, len(engineKinds))
	for _, kind := range engineKinds {
		transcripts[kind] = runMembershipWorkload(t, kind)
	}
	ref := transcripts[EngineLocal]
	if ref == "" {
		t.Fatal("empty reference transcript")
	}
	for _, kind := range engineKinds[1:] {
		if transcripts[kind] != ref {
			t.Errorf("engine %s diverges from local:\n%s", kind,
				firstDiff(ref, transcripts[kind]))
		}
	}
}

// TestRemovePeerLastHostingErrors pins the graceful-leave guard: the
// last peer cannot leave while hosting tree nodes.
func TestRemovePeerLastHostingErrors(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		reg := newRegistry(t, 1, WithSeed(5), WithEngine(kind))
		if err := reg.Register(ctx, "svc", "ep"); err != nil {
			t.Fatal(err)
		}
		infos, err := reg.Peers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RemovePeer(ctx, infos[0].ID); err == nil {
			t.Fatal("last hosting peer left without error")
		}
		if err := reg.CrashPeer(ctx, infos[0].ID); err == nil {
			t.Fatal("last peer crashed without error")
		}
		if err := reg.RemovePeer(ctx, "nosuchpeer"); err == nil {
			t.Fatal("unknown peer removed without error")
		}
	})
}

// TestUnregisterBesideCrashedPeer unregisters the last endpoint of a
// key whose only child's host crashed and was not recovered yet: the
// registry must stay up, and Recover must bring back a valid overlay.
// The key is the lowest peer id, so it lives on that peer, and its
// child on the next one.
func TestUnregisterBesideCrashedPeer(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		reg := newRegistry(t, 4, WithSeed(29), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
		infos, err := reg.Peers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		key, child := infos[0].ID, infos[0].ID+"0"
		for _, k := range []string{key, child} {
			if err := reg.Register(ctx, k, "ep"); err != nil {
				t.Fatal(err)
			}
		}
		if err := reg.CrashPeer(ctx, infos[1].ID); err != nil {
			t.Fatal(err)
		}
		if ok, err := reg.Unregister(ctx, key, "ep"); err != nil || !ok {
			t.Fatalf("unregister %q: %v, %v", key, ok, err)
		}
		if _, err := reg.Recover(ctx); err != nil {
			t.Fatal(err)
		}
		if err := reg.Validate(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRemovePeerDuringDiscoveries removes peers while discoveries
// stream through the concurrent engines: every discovery must still
// complete (the live engine drains departed mailboxes, the TCP engine
// re-resolves hosts per hop).
func TestRemovePeerDuringDiscoveries(t *testing.T) {
	for _, kind := range []EngineKind{EngineLive, EngineTCP} {
		t.Run(string(kind), func(t *testing.T) {
			ctx := context.Background()
			reg := newRegistry(t, 10, WithSeed(23), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
			corpus := workload.GridCorpus(60)
			batch := make([]Registration, len(corpus))
			for i, k := range corpus {
				batch[i] = Registration{Name: string(k), Endpoint: "ep"}
			}
			if err := reg.RegisterBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			errc := make(chan error, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if _, _, err := reg.Discover(ctx, string(corpus[(i+g)%len(corpus)])); err != nil {
							errc <- fmt.Errorf("discover: %w", err)
							return
						}
					}
				}(g)
			}
			for i := 0; i < 4; i++ {
				id, err := reg.AddPeerWithCapacity(ctx, 100)
				if err != nil {
					t.Fatal(err)
				}
				if err := reg.RemovePeer(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errc:
				// The TCP engine may surface a dial error for a hop
				// racing the closing listener; the live engine must
				// not fail at all.
				if kind == EngineLive {
					t.Fatal(err)
				}
				t.Logf("tolerated racing error: %v", err)
			default:
			}
			if err := reg.Validate(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}
