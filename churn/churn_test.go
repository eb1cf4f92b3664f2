package churn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dlpt"
	"dlpt/engine"
	enginelive "dlpt/engine/live"
	enginelocal "dlpt/engine/local"
	enginetcp "dlpt/engine/tcp"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/workload"
)

func corpus(n int) []string {
	ks := workload.GridCorpus(n)
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return out
}

func startEngine(t *testing.T, f engine.Factory, peers int) engine.Engine {
	t.Helper()
	caps := make([]int, peers)
	for i := range caps {
		caps[i] = 200
	}
	eng, err := f(engine.Config{Alphabet: keys.LowerAlnum, Capacities: caps, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

var factories = map[string]engine.Factory{
	"local": enginelocal.Factory,
	"live":  enginelive.Factory,
	"tcp":   enginetcp.Factory,
}

// TestRunAllEngines drives a churn mix with joins, leaves, crashes,
// recoveries and balancing over every engine; Run validates the
// overlay internally at the end. EqualLoad is capacity-blind and
// reliably applies boundary moves, so the balancing renames exercise
// the live engine's mailbox rewiring and the tcp engine's
// address-table rewiring.
func TestRunAllEngines(t *testing.T) {
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			eng := startEngine(t, f, 8)
			ctx := context.Background()
			st, err := Run(ctx, eng, Config{
				Seed:      3,
				Ops:       400,
				JoinRate:  0.05,
				LeaveRate: 0.03,
				CrashRate: 0.02,
				Strategy:  "EqualLoad",
				Keys:      corpus(80),
			})
			if err != nil {
				t.Fatalf("%s: %v (stats %+v)", name, err, st)
			}
			if st.Ops != 400 {
				t.Fatalf("ran %d ops, want 400", st.Ops)
			}
			if st.Registers == 0 || st.Discoveries == 0 {
				t.Fatalf("no data workload ran: %+v", st)
			}
			if st.BalanceMoves == 0 {
				t.Fatalf("EqualLoad applied no moves — rename/rewire path untested: %+v", st)
			}
			if st.Crashes > 0 && st.Recoveries == 0 {
				t.Fatalf("crashed without recovering: %+v", st)
			}
			if st.FinalPeers != eng.NumPeers() {
				t.Fatalf("FinalPeers=%d, engine says %d", st.FinalPeers, eng.NumPeers())
			}
			ms, err := eng.MembershipStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ms.Joins != st.Joins || ms.Leaves != st.Leaves || ms.Crashes != st.Crashes {
				t.Fatalf("engine stats %+v disagree with driver stats %+v", ms, st)
			}
		})
	}
}

// TestRunDeterministic requires identical stats for identical seeds
// on the sequential engine.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Seed:      11,
		Ops:       300,
		JoinRate:  0.04,
		LeaveRate: 0.03,
		CrashRate: 0.02,
		Keys:      corpus(60),
	}
	run := func() Stats {
		eng := startEngine(t, enginelocal.Factory, 6)
		st, err := Run(context.Background(), eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestBalancerHook verifies one round of the configured strategy
// runs per BalanceEvery steps and that its moves are counted.
func TestBalancerHook(t *testing.T) {
	eng := startEngine(t, enginelocal.Factory, 6)
	st, err := Run(context.Background(), eng, Config{
		Seed:         5,
		Ops:          128,
		BalanceEvery: 16,
		Strategy:     "EqualLoad",
		Keys:         corpus(40),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.BalanceRounds != 128/16 {
		t.Fatalf("BalanceRounds=%d, want %d", st.BalanceRounds, 128/16)
	}
	if st.BalanceMoves == 0 {
		t.Fatalf("EqualLoad applied no moves: %+v", st)
	}
}

// TestConfigValidation rejects nonsense configurations.
func TestConfigValidation(t *testing.T) {
	eng := startEngine(t, enginelocal.Factory, 3)
	ctx := context.Background()
	if _, err := Run(ctx, eng, Config{Ops: 10}); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := Run(ctx, eng, Config{Keys: corpus(4)}); err == nil {
		t.Fatal("zero ops accepted")
	}
	if _, err := Run(ctx, eng, Config{Ops: 10, Keys: corpus(4),
		JoinRate: 0.6, LeaveRate: 0.6}); err == nil {
		t.Fatal("rates > 1 accepted")
	}
	// A negative band would silently resize the others; NaN would
	// disable every band.
	if _, err := Run(ctx, eng, Config{Ops: 10, Keys: corpus(4),
		JoinRate: -0.5, LeaveRate: 0.6}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := Run(ctx, eng, Config{Ops: 10, Keys: corpus(4),
		JoinRate: math.NaN()}); err == nil {
		t.Fatal("NaN rate accepted")
	}
}

// TestRunDirectoryAllEngines drives the attribute-level churn
// workload over every engine: multi-attribute resources come and go
// under membership churn, so the attribute sub-trees ("cpu=", "mem=",
// "site=") see churn too, and conjunctive queries run throughout.
func TestRunDirectoryAllEngines(t *testing.T) {
	for name := range factories {
		t.Run(name, func(t *testing.T) {
			dir, err := dlpt.NewDirectory(6,
				dlpt.WithSeed(9),
				dlpt.WithEngine(dlpt.EngineKind(name)))
			if err != nil {
				t.Fatal(err)
			}
			defer dir.Close()
			st, err := RunDirectory(context.Background(), dir, Config{
				Seed:      13,
				Ops:       300,
				JoinRate:  0.04,
				LeaveRate: 0.03,
				CrashRate: 0.02,
			})
			if err != nil {
				t.Fatalf("%s: %v (stats %+v)", name, err, st)
			}
			if st.Registers == 0 || st.Finds == 0 {
				t.Fatalf("no resource workload ran: %+v", st)
			}
			if st.Matches == 0 {
				t.Fatalf("no query ever matched: %+v", st)
			}
			if st.Crashes > 0 && st.Recoveries == 0 {
				t.Fatalf("crashed without recovering: %+v", st)
			}
			if st.FinalResources != dir.NumResources() {
				t.Fatalf("FinalResources=%d, directory says %d",
					st.FinalResources, dir.NumResources())
			}
		})
	}
}

// TestRunDirectoryDeterministic requires identical stats for
// identical seeds on the sequential engine. The second case recovers
// from crashes whose reconciliation issues Discover calls, which draw
// from the engine's generator: the calls must not depend on map order.
func TestRunDirectoryDeterministic(t *testing.T) {
	for _, tc := range []struct {
		peers   int
		dirSeed int64
		runs    int
		cfg     Config
	}{
		{5, 21, 2, Config{Seed: 23, Ops: 200, JoinRate: 0.03, LeaveRate: 0.02, CrashRate: 0.02}},
		{6, 9, 8, Config{Seed: 13, Ops: 300, JoinRate: 0.04, LeaveRate: 0.03, CrashRate: 0.02,
			RecoverRate: 0.01}},
	} {
		var first DirectoryStats
		for i := 0; i < tc.runs; i++ {
			dir, err := dlpt.NewDirectory(tc.peers,
				dlpt.WithSeed(tc.dirSeed), dlpt.WithEngine(dlpt.EngineLocal))
			if err != nil {
				t.Fatal(err)
			}
			st, err := RunDirectory(context.Background(), dir, tc.cfg)
			dir.Close()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = st
			} else if st != first {
				t.Fatalf("seed %d run %d diverged:\n  %+v\n  %+v", tc.cfg.Seed, i, first, st)
			}
		}
	}
}

// TestRunColdRestartAllEngines kills every peer of a durable overlay
// after a churn soak and restarts it from the persistence directory
// on each engine; the helper itself asserts the restored catalogue
// equals the one declared at the final replication tick.
func TestRunColdRestartAllEngines(t *testing.T) {
	for name := range factories {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := []dlpt.Option{dlpt.WithSeed(17), dlpt.WithEngine(dlpt.EngineKind(name)),
				dlpt.WithPersistence(dir)}
			reg, err := dlpt.New(6, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			st, err := RunColdRestart(context.Background(), reg, dir, Config{
				Seed:      17,
				Ops:       250,
				JoinRate:  0.04,
				LeaveRate: 0.03,
				CrashRate: 0.02,
				Keys:      corpus(60),
			}, opts...)
			if err != nil {
				t.Fatalf("%s: %v (stats %+v)", name, err, st)
			}
			if st.Declared == 0 || st.Recovered != st.Declared {
				t.Fatalf("recovered %d of %d declared keys", st.Recovered, st.Declared)
			}
			if st.CrashedBeforeKill == 0 {
				t.Fatalf("no peer was crashed before the kill: %+v", st)
			}
		})
	}
}

// dirGolden is the part of DirectoryStats the goldens pin.
type dirGolden struct {
	Ops, Registers, Unregisters, Finds, Matches int
	Joins, Leaves, Crashes, Recoveries          int
	Replications, FinalResources                int
}

func dirSummary(st DirectoryStats) dirGolden {
	return dirGolden{st.Ops, st.Registers, st.Unregisters, st.Finds, st.Matches,
		st.Joins, st.Leaves, st.Crashes, st.Recoveries, st.Replications, st.FinalResources}
}

// TestGoldenStats pins what Run and RunDirectory do at fixed seeds on
// the sequential engine, so a change to the driver that moves one
// random draw or one engine call shows up as a changed count.
func TestGoldenStats(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		seed int64
		want Stats
	}{
		{3, Stats{
			Ops: 400, Registers: 93, Unregisters: 86, Discoveries: 183, Found: 58,
			Joins: 21, Leaves: 8, Crashes: 9, Recoveries: 9, Replications: 6,
			ReplicatedNodes: 238, RestoredNodes: 24, LostNodes: 6, BalanceRounds: 12, BalanceMoves: 56,
			FinalPeers: 12, FinalKeys: 39,
		}},
		{11, Stats{
			Ops: 400, Registers: 90, Unregisters: 87, Discoveries: 176, Found: 45,
			Joins: 22, Leaves: 12, Crashes: 6, Recoveries: 6, Replications: 6,
			ReplicatedNodes: 217, RestoredNodes: 16, LostNodes: 2, BalanceRounds: 12, BalanceMoves: 38,
			FinalPeers: 12, FinalKeys: 39,
		}},
		{29, Stats{
			Ops: 400, Registers: 84, Unregisters: 84, Discoveries: 182, Found: 57,
			Joins: 23, Leaves: 10, Crashes: 9, Recoveries: 8, Replications: 6,
			ReplicatedNodes: 205, RestoredNodes: 23, LostNodes: 4, BalanceRounds: 12, BalanceMoves: 57,
			FinalPeers: 12, FinalKeys: 35,
		}},
	} {
		eng := startEngine(t, enginelocal.Factory, 8)
		st, err := Run(ctx, eng, Config{
			Seed: tc.seed, Ops: 400, JoinRate: 0.05, LeaveRate: 0.03, CrashRate: 0.02,
			RecoverRate: 0.01, Strategy: "EqualLoad", Keys: corpus(80),
		})
		if err != nil {
			t.Fatal(err)
		}
		if st != tc.want {
			t.Errorf("Run seed %d:\n  got  %#v\n  want %#v", tc.seed, st, tc.want)
		}
	}
	for _, tc := range []struct {
		peers   int
		dirSeed int64
		cfg     Config
		want    dirGolden
	}{
		// BalanceEvery -1: the sequence these were captured with ran
		// no balancing rounds.
		{6, 9, Config{Seed: 13, Ops: 300, JoinRate: 0.04, LeaveRate: 0.03, CrashRate: 0.02,
			RecoverRate: 0.01, BalanceEvery: -1}, dirGolden{
			Ops: 300, Registers: 62, Unregisters: 13, Finds: 130, Matches: 526,
			Joins: 15, Leaves: 14, Crashes: 5, Recoveries: 5, Replications: 4,
			FinalResources: 10,
		}},
		{5, 21, Config{Seed: 23, Ops: 400, JoinRate: 0.03, LeaveRate: 0.02, CrashRate: 0.03,
			RecoverRate: 0.02, BalanceEvery: -1}, dirGolden{
			Ops: 400, Registers: 84, Unregisters: 22, Finds: 185, Matches: 745,
			Joins: 16, Leaves: 7, Crashes: 12, Recoveries: 12, Replications: 6,
			FinalResources: 16,
		}},
	} {
		dir, err := dlpt.NewDirectory(tc.peers,
			dlpt.WithSeed(tc.dirSeed), dlpt.WithEngine(dlpt.EngineLocal))
		if err != nil {
			t.Fatal(err)
		}
		st, err := RunDirectory(ctx, dir, tc.cfg)
		dir.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := dirSummary(st); got != tc.want {
			t.Errorf("RunDirectory seed %d:\n  got  %#v\n  want %#v", tc.cfg.Seed, got, tc.want)
		}
	}
}

// TestRecoverKeepsAckedSet holds Recover to a set model of the acked
// operations on the sequential engine, over the churn loop's crash and
// recovery schedule: after every recovery no key whose last acked
// operation was an unregister is in the catalogue, and every key whose
// last acked operation was a register is, unless the recovery named it
// lost (its state is then unknown until the next acked operation).
func TestRecoverKeepsAckedSet(t *testing.T) {
	ctx := context.Background()
	ks := corpus(80)
	for seed := int64(1); seed <= 40; seed++ {
		eng := startEngine(t, enginelocal.Factory, 8)
		registered := make(map[string]bool) // the last acked operation on each key
		cfg := Config{Seed: seed, Ops: 400, JoinRate: 0.04, LeaveRate: 0.02, CrashRate: 0.04,
			RecoverRate: 0.03, ReplicateEvery: 16, Strategy: "EqualLoad", Keys: ks}
		var st Stats
		err := drive(ctx, eng, cfg, &st, func(_ int, r *rand.Rand, repair func() error) error {
			key := ks[r.Intn(len(ks))]
			if r.Intn(3) == 0 {
				return nil // a read leaves the model alone
			}
			if err := repair(); err != nil {
				return err
			}
			if r.Intn(2) == 0 {
				registered[key] = true
				return eng.Register(ctx, key, "ep://"+key)
			}
			registered[key] = false
			_, err := eng.Unregister(ctx, key, "ep://"+key)
			return err
		}, func(rep engine.RecoveryReport) error {
			all, err := eng.Complete(ctx, "")
			if err != nil {
				return err
			}
			present := make(map[string]bool)
			for _, k := range all.Keys {
				present[k] = true
			}
			lost := make(map[string]bool)
			for _, k := range rep.LostKeys {
				lost[k] = true
			}
			for k, reg := range registered {
				switch {
				case !reg && present[k]:
					return fmt.Errorf("recovery %d: unregistered key %q is back", st.Recoveries, k)
				case reg && !present[k] && !lost[k]:
					return fmt.Errorf("recovery %d: registered key %q is gone and not declared lost", st.Recoveries, k)
				}
				if lost[k] {
					delete(registered, k)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// rehomeChecked wraps a local engine and runs the reference re-home
// after every join, leave, recovery and balancing round: a full rescan that checks the replica of every live node against
// the successor rule must find nothing to move.
type rehomeChecked struct {
	engine.Engine
	rt *overlay.Runtime
}

func (e rehomeChecked) misplaced(what string) error {
	e.rt.Mu.RLock()
	defer e.rt.Mu.RUnlock()
	net := e.rt.Net
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		for _, n := range p.Nodes() {
			loc, ok := net.ReplicaHolder(n.Key)
			if !ok {
				continue
			}
			host, _ := net.HostOf(n.Key)
			if want, _ := net.Ring().Successor(host); loc != want {
				return fmt.Errorf("after a %s: replica of %q on %q, successor rule says %q", what, n.Key, loc, want)
			}
		}
	}
	return nil
}

func (e rehomeChecked) AddPeer(ctx context.Context, capacity int) (string, error) {
	id, err := e.Engine.AddPeer(ctx, capacity)
	if err == nil {
		err = e.misplaced("join")
	}
	return id, err
}

func (e rehomeChecked) RemovePeer(ctx context.Context, id string) error {
	if err := e.Engine.RemovePeer(ctx, id); err != nil {
		return err
	}
	return e.misplaced("leave")
}

func (e rehomeChecked) Recover(ctx context.Context) (engine.RecoveryReport, error) {
	rep, err := e.Engine.Recover(ctx)
	if err == nil {
		err = e.misplaced("recovery")
	}
	return rep, err
}

func (e rehomeChecked) Balance(ctx context.Context, strategy string) (int, error) {
	moves, err := e.Engine.Balance(ctx, strategy)
	if err == nil {
		err = e.misplaced("balancing round")
	}
	return moves, err
}

// TestRehomeIsExact runs the churn loop on the sequential engine with
// the reference re-home after every topology change, and pins the
// replica transfer traffic the schedules pay: the re-homes move the
// same replicas as a full rescan, so they count the same transfers.
func TestRehomeIsExact(t *testing.T) {
	ctx := context.Background()
	ks := corpus(120)
	msgs, moved := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		eng := startEngine(t, enginelocal.Factory, 8)
		checked := rehomeChecked{eng, &eng.(*enginelocal.Engine).Cluster().Runtime}
		_, err := Run(ctx, checked, Config{Seed: seed, Ops: 400, JoinRate: 0.05, LeaveRate: 0.04,
			CrashRate: 0.03, RecoverRate: 0.02, ReplicateEvery: 16, BalanceEvery: 24,
			Strategy: "EqualLoad", Keys: ks})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ms, err := eng.MembershipStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		msgs, moved = msgs+ms.ReplicaTransferMsgs, moved+ms.ReplicaTransferredNodes
	}
	if msgs != 3142 || moved != 22573 {
		t.Fatalf("%d transfer messages moving %d replicas, want 3142 moving 22573", msgs, moved)
	}
}
