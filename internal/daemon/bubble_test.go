//go:build goexperiment.synctest

// Bubble twins: daemon fault tests that run whole dlptd overlays on an
// in-process net inside a testing/synctest bubble. Probes, elections
// and repairs wait on virtual time, so a failover that takes a second
// of the overlay's time costs milliseconds of wall time. Run them with
//
//	GOEXPERIMENT=synctest go test -run Bubble ./internal/daemon
//
// Two rules hold inside a bubble. Every daemon is closed before
// synctest.Run returns. And nothing calls Admin or GetStatus: their
// process-wide client dials real TCP. Reads go through the daemon's own
// admin handler, d.admin, instead. (A t.Fatal inside the bubble ends
// its root goroutine; the deferred closes still run, so Run returns and
// the test reports the failure.)

package daemon

import (
	"fmt"
	"runtime"
	"testing"
	"testing/synctest"
	"time"

	"dlpt/internal/memnet"
	"dlpt/internal/obs"
	"dlpt/internal/transport"
)

// inBubble runs f inside a bubble with a fresh in-process net. start
// brings a daemon up on that net (unless cfg names a Net of its own)
// and every daemon it started is closed, newest first, before the
// bubble ends. Two collections before and after it empty the sync.Pool
// the runtime recycles pending calls through, so neither side is handed
// the other's channels (see the transport twin's inBubble).
func inBubble(t *testing.T, f func(n *memnet.Net, start func(Config) *Daemon)) {
	emptyPools := func() { runtime.GC(); runtime.GC() }
	emptyPools()
	defer emptyPools()
	synctest.Run(func() {
		n := memnet.New()
		var ds []*Daemon
		defer func() {
			for i := len(ds) - 1; i >= 0; i-- {
				ds[i].Close()
			}
		}()
		f(n, func(cfg Config) *Daemon {
			if cfg.Net == nil {
				cfg.Net = n
			}
			d := startDaemon(t, cfg)
			ds = append(ds, d)
			return d
		})
	})
}

// localAdmin runs one admin op on d in process, failing on an error.
func localAdmin(t *testing.T, d *Daemon, req *AdminRequest) *AdminResponse {
	t.Helper()
	resp := d.admin(req)
	if resp.Err != "" {
		t.Fatalf("%s on %s: %s", req.Op, d.Addr(), resp.Err)
	}
	return resp
}

// TestBubbleMissedBroadcastHealsMidEpoch is the whole table of
// TestMissedBroadcastHealsMidEpoch on the virtual clock.
func TestBubbleMissedBroadcastHealsMidEpoch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rule    transport.FaultRule
		filler  int
		payload string
	}{
		{name: "records", rule: transport.FaultRule{Drop: true, Count: 1}, payload: "records"},
		{name: "records-at-bound", rule: transport.FaultRule{Drop: true, Count: applyLogSize - 1}, filler: applyLogSize - 2, payload: "records"},
		{name: "image", rule: transport.FaultRule{Drop: true, Count: applyLogSize}, filler: applyLogSize - 1, payload: "image"},
		{name: "dup", rule: transport.FaultRule{Dup: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inBubble(t, func(n *memnet.Net, start func(Config) *Daemon) {
				faults := transport.NewFaults(29)
				faults.Net = n
				cfg := testConfig(1)
				cfg.Net = faults
				steward := start(cfg)
				m1 := start(testConfig(2, steward.Addr()))
				m2 := start(testConfig(3, steward.Addr()))
				ds := []*Daemon{steward, m1, m2}
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
				for _, d := range ds {
					for _, k := range want {
						if !localAdmin(t, d, &AdminRequest{Op: "discover", Key: k}).Found {
							t.Fatalf("discover %s on %s: not found", k, d.Addr())
						}
					}
					if got := len(localAdmin(t, d, &AdminRequest{Op: "complete"}).Keys); got != tc.filler+len(want) {
						t.Fatalf("complete on %s: %d keys, want %d", d.Addr(), got, tc.filler+len(want))
					}
				}
				snap := steward.obsReg.Snapshot()
				for _, kind := range []string{"records", "image"} {
					got := repairs(snap, kind)
					if kind == tc.payload && got < 1 || kind != tc.payload && got != 0 {
						t.Fatalf("steward counts %g %s repairs in the %s case", got, kind, tc.name)
					}
				}
				for _, m := range ds[1:] {
					switch n := m.obsReg.Snapshot().Get(obs.SeriesApplyRefusals); {
					case m == lagging && n < 1:
						t.Fatalf("lagging member counts %g refused applies, want at least 1", n)
					case m != lagging && n != 0:
						t.Fatalf("in-step member counts %g refused applies", n)
					}
				}
			})
		})
	}
}

// TestBubbleStewardFailover is TestStewardFailoverElectsLowestSurvivor
// on the virtual clock: four daemons, the steward killed, the lowest
// survivor elected under epoch 2, the barrier and the old steward's
// crash on every survivor, writes resumed and mirrors byte-identical.
// It reports the failover in virtual time.
func TestBubbleStewardFailover(t *testing.T) {
	inBubble(t, func(_ *memnet.Net, start func(Config) *Daemon) {
		ds := []*Daemon{start(failoverConfig(1))}
		for i := 1; i < 4; i++ {
			ds = append(ds, start(failoverConfig(int64(i+1), ds[0].Addr())))
		}
		for i := 0; i < 10; i++ {
			register(t, ds[i%4], fmt.Sprintf("pre%02d", i), "v")
		}
		if err := ds[0].ReplicateNow(); err != nil {
			t.Fatalf("replicate: %v", err)
		}

		killed := time.Now()
		ds[0].Cluster().Stop()
		survivors := ds[1:]
		steward := waitSteward(t, survivors, 2)
		lowest := survivors[0]
		for _, d := range survivors[1:] {
			if d.SelfID() < lowest.SelfID() {
				lowest = d
			}
		}
		if steward != lowest {
			t.Fatalf("steward %s is not the lowest surviving id %s", steward.SelfID(), lowest.SelfID())
		}
		waitFor(t, 15*time.Second, func() bool {
			for _, d := range survivors {
				if d.Epoch() != 2 || d.MemberCount() != 3 || d.Seq() != steward.Seq() {
					return false
				}
			}
			return true
		}, "survivors converge on epoch 2")
		t.Logf("failover took %v of virtual time, kill to converged barrier", time.Since(killed))

		for i, d := range survivors {
			register(t, d, fmt.Sprintf("post%02d", i), "v")
		}
		waitFor(t, 10*time.Second, func() bool {
			for _, d := range survivors {
				if d.Seq() != steward.Seq() {
					return false
				}
			}
			return true
		}, "post-failover writes reach every mirror")
		want := mirrorState(t, steward)
		for i, d := range survivors {
			if got := mirrorState(t, d); got != want {
				t.Fatalf("survivor %d mirror diverged:\n got %s\nwant %s", i, got, want)
			}
			for j := 0; j < 10; j++ {
				if k := fmt.Sprintf("pre%02d", j); !localAdmin(t, d, &AdminRequest{Op: "discover", Key: k}).Found {
					t.Fatalf("discover %s on survivor %d: not found", k, i)
				}
			}
			localAdmin(t, d, &AdminRequest{Op: "validate"})
		}
		if st := steward.Status(); st.Role != "steward" || st.Epoch != 2 {
			t.Fatalf("steward status = %+v", st)
		}
	})
}
