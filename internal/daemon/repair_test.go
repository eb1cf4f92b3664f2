// Mid-epoch repair and the one-commit-path differential: a member that
// misses a broadcast is healed by the very next commit, and every kind
// of record leaves every mirror byte-identical to the steward's.

package daemon

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dlpt/internal/obs"
	"dlpt/internal/transport"
)

// obsOf reads a daemon's metric snapshot through the obs admin op.
func obsOf(t *testing.T, d *Daemon) obs.Snapshot {
	t.Helper()
	resp, err := Admin(context.Background(), d.Addr(), &AdminRequest{Op: "obs"})
	if err != nil {
		t.Fatalf("obs on %s: %v", d.Addr(), err)
	}
	return resp.Obs
}

func repairs(snap obs.Snapshot, kind string) float64 {
	return snap.Get(obs.SeriesMirrorRepairs + `{kind="` + kind + `"}`)
}

// assertInStep fails unless every daemon stands at the steward's
// sequence number with a byte-identical mirror.
func assertInStep(t *testing.T, steward *Daemon, ds []*Daemon, when string) {
	t.Helper()
	want := mirrorState(t, steward)
	for _, d := range ds {
		if d.Seq() != steward.Seq() {
			t.Fatalf("%s: %s at seq %d, steward at %d", when, d.Addr(), d.Seq(), steward.Seq())
		}
		if got := mirrorState(t, d); got != want {
			t.Fatalf("%s: mirror of %s diverged:\n got %s\nwant %s", when, d.Addr(), got, want)
		}
	}
}

// A member that misses APPLY broadcasts while its link stays up (so the
// probe loop never crashes it out) is healed inside the next commit
// that reaches it: from the apply log when it covers the gap, with the
// whole mirror when it does not. A duplicated APPLY is no gap.
func TestMissedBroadcastHealsMidEpoch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rule    transport.FaultRule
		filler  int    // registers sent while the rule is still dropping
		payload string // the repair kind the steward must count; "" for none
	}{
		{name: "records", rule: transport.FaultRule{Drop: true, Count: 1}, payload: "records"},
		// The boundary: the commit after n drops finds the member n+1
		// records behind; applyLogSize behind is the last gap the log covers.
		{name: "records-at-bound", rule: transport.FaultRule{Drop: true, Count: applyLogSize - 1}, filler: applyLogSize - 2, payload: "records"},
		{name: "image", rule: transport.FaultRule{Drop: true, Count: applyLogSize}, filler: applyLogSize - 1, payload: "image"},
		{name: "dup", rule: transport.FaultRule{Dup: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := transport.NewFaults(29)
			cfg := testConfig(1)
			cfg.Net = faults
			steward := startDaemon(t, cfg)
			m1 := startDaemon(t, testConfig(2, steward.Addr()))
			m2 := startDaemon(t, testConfig(3, steward.Addr()))
			ds := []*Daemon{steward, m1, m2}
			// The member with the lower ring id hosts tree nodes: when it
			// lags, the whole overlay answers wrong, not only its clients.
			lagging := m1
			if m2.SelfID() < m1.SelfID() {
				lagging = m2
			}
			tc.rule.Type, tc.rule.Addr = transport.FrameApply, lagging.Addr()
			faults.Inject(tc.rule)

			for i := 0; i < tc.filler; i++ {
				register(t, steward, fmt.Sprintf("fill%03d", i), "v")
			}
			var want []string
			for i := 0; i < 20; i++ {
				want = append(want, fmt.Sprintf("%csvc%02d", 'a'+i, i))
				register(t, steward, want[i], "v")
			}
			want = append(want, "zlagging")
			register(t, lagging, "zlagging", "v")

			assertInStep(t, steward, ds, "after the run")
			ctx := context.Background()
			for _, d := range ds {
				for _, k := range want {
					resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "discover", Key: k})
					if err != nil || !resp.Found {
						t.Fatalf("discover %s on %s: found=%v err=%v", k, d.Addr(), resp != nil && resp.Found, err)
					}
				}
				resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "complete", Prefix: ""})
				if err != nil || len(resp.Keys) != tc.filler+len(want) {
					t.Fatalf("complete on %s: %d keys, want %d (err %v)", d.Addr(), len(resp.Keys), tc.filler+len(want), err)
				}
			}

			snap := obsOf(t, steward)
			for _, kind := range []string{"records", "image"} {
				got := repairs(snap, kind)
				if kind == tc.payload && got < 1 || kind != tc.payload && got != 0 {
					t.Fatalf("steward counts %g %s repairs in the %s case", got, kind, tc.name)
				}
			}
			for _, m := range ds[1:] {
				switch n := obsOf(t, m).Get(obs.SeriesApplyRefusals); {
				case m == lagging && n < 1:
					t.Fatalf("lagging member counts %g refused applies, want at least 1", n)
				case m != lagging && n != 0:
					t.Fatalf("in-step member counts %g refused applies", n)
				}
			}
		})
	}
}

// The differential behind "one commit path": a seeded schedule of every
// kind of record — register, unregister, join, graceful leave, member
// crash and recovery, replication tick — with an APPLY to a random
// member dropped every few steps, and after each step every mirror must
// equal the steward's. Join, leave and crash are the records whose
// steward-side bookkeeping used to be a separate copy.
func TestCommitPathDifferential(t *testing.T) {
	faults := transport.NewFaults(31)
	cfg := testConfig(1)
	cfg.Net = faults
	steward := startDaemon(t, cfg)
	members := []*Daemon{}
	nextSeed := int64(2)
	join := func() {
		members = append(members, startDaemon(t, testConfig(nextSeed, steward.Addr())))
		nextSeed++
	}
	for i := 0; i < 3; i++ {
		join()
	}
	rng := rand.New(rand.NewSource(37))
	var live []string // registered keys
	step := func(i int) string {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0:
			k := fmt.Sprintf("%ck%03d", 'a'+rng.Intn(26), i)
			via := append([]*Daemon{steward}, members...)[rng.Intn(len(members)+1)]
			register(t, via, k, "v")
			live = append(live, k)
			return "register " + k
		case op < 6:
			j := rng.Intn(len(live))
			k := live[j]
			live = append(live[:j], live[j+1:]...)
			if err := steward.mutate(transport.OpUnregister, k, "v"); err != nil {
				t.Fatalf("unregister %s: %v", k, err)
			}
			return "unregister " + k
		case op < 7:
			if err := steward.ReplicateNow(); err != nil {
				t.Fatalf("replicate: %v", err)
			}
			return "replicate"
		case op < 8 && len(members) < 5:
			join()
			return "join"
		case op < 9 && len(members) > 2:
			j := rng.Intn(len(members))
			gone := members[j]
			members = append(members[:j], members[j+1:]...)
			if err := gone.Close(); err != nil {
				t.Fatalf("leave: %v", err)
			}
			return "leave " + gone.Addr()
		case len(members) > 2:
			// Replicate first so the crash loses no key, then die without
			// a leave: the steward's probe loop commits crash and recovery.
			if err := steward.ReplicateNow(); err != nil {
				t.Fatalf("replicate: %v", err)
			}
			j := rng.Intn(len(members))
			gone := members[j]
			members = append(members[:j], members[j+1:]...)
			before := steward.Seq()
			gone.Cluster().Stop()
			waitFor(t, 10*time.Second, func() bool {
				return steward.MemberCount() == len(members)+1 && steward.Seq() == before+2
			}, "steward commits the crash and the recovery")
			return "crash " + gone.Addr()
		}
		if err := steward.ReplicateNow(); err != nil {
			t.Fatalf("replicate: %v", err)
		}
		return "replicate"
	}
	for i := 0; i < 60; i++ {
		dropped := i%10 == 5
		if dropped {
			faults.Inject(transport.FaultRule{
				Type: transport.FrameApply, Addr: members[rng.Intn(len(members))].Addr(), Drop: true, Count: 1,
			})
		}
		what := step(i)
		if dropped {
			// The member that missed a record says so at the next commit,
			// and is healed inside it. (Clear: the step may have removed
			// that member before the rule was spent.)
			faults.Clear()
			register(t, steward, fmt.Sprintf("heal%03d", i), "v")
		}
		assertInStep(t, steward, members, fmt.Sprintf("step %d (%s)", i, what))
	}
	for _, d := range append([]*Daemon{steward}, members...) {
		if err := d.Cluster().Validate(); err != nil {
			t.Fatalf("validate %s: %v", d.Addr(), err)
		}
	}
	if snap := obsOf(t, steward); repairs(snap, "records")+repairs(snap, "image") < 1 {
		t.Fatalf("six dropped broadcasts and no repair counted")
	}
}
