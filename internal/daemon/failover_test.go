// Steward-failover suite: deterministic in-process elections driven
// by abrupt cluster stops and the transport fault hooks. The
// cross-process version (SIGKILL under load) lives in cmd/dlptd's
// smoke test.

package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dlpt/internal/catalog"
	"dlpt/internal/keys"
	"dlpt/internal/persist"
	"dlpt/internal/transport"
)

// failoverConfig is testConfig with the failover timers tightened.
func failoverConfig(seed int64, bootstrap ...string) Config {
	cfg := testConfig(seed, bootstrap...)
	cfg.ElectionTimeout = Duration(300 * time.Millisecond)
	cfg.ForwardRetry = Duration(8 * time.Second)
	return cfg
}

// mirrorState marshals a daemon's deterministic mirror state — the
// peer table and the catalogue, the byte-identical-by-construction
// part (load counters are no part of the overlay image).
func mirrorState(t *testing.T, d *Daemon) string {
	t.Helper()
	peers, nodes := parseImage(t, d.Cluster().MirrorImage())
	b, err := json.Marshal(struct {
		Peers any
		Nodes any
	}{peers, nodes})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseImage parses an overlay image into its peers and entries.
func parseImage(t *testing.T, image []byte) ([]persist.PeerState, []catalog.Entry) {
	t.Helper()
	snap, err := persist.ParseImage(image)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []catalog.Entry
	if err := snap.Ascend(func(e catalog.Entry) bool {
		nodes = append(nodes, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return snap.Peers, nodes
}

// waitSteward waits until exactly one of ds holds stewardship at
// epoch, and returns it.
func waitSteward(t *testing.T, ds []*Daemon, epoch uint64) *Daemon {
	t.Helper()
	var steward *Daemon
	waitFor(t, 30*time.Second, func() bool {
		steward = nil
		n := 0
		for _, d := range ds {
			if d.IsSteward() && d.Epoch() == epoch {
				steward = d
				n++
			}
		}
		return n == 1
	}, fmt.Sprintf("one survivor assumes stewardship at epoch %d", epoch))
	return steward
}

// register writes one key through d, failing the test on error.
func register(t *testing.T, d *Daemon, k, v string) {
	t.Helper()
	if err := d.mutate(transport.OpRegister, k, v); err != nil {
		t.Fatalf("register %s via %s: %v", k, d.Addr(), err)
	}
}

// Killing the steward elects the lowest-id survivor under epoch 2,
// the survivors' mirrors converge byte-identically, and writes resume
// through the new steward.
func TestStewardFailoverElectsLowestSurvivor(t *testing.T) {
	ds := []*Daemon{startDaemon(t, failoverConfig(1))}
	for i := 1; i < 4; i++ {
		ds = append(ds, startDaemon(t, failoverConfig(int64(i+1), ds[0].Addr())))
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		register(t, ds[i%4], fmt.Sprintf("pre%02d", i), "v")
	}
	if err := ds[0].ReplicateNow(); err != nil {
		t.Fatalf("replicate: %v", err)
	}

	// Abrupt steward death: no graceful leave, no warning.
	ds[0].Cluster().Stop()
	survivors := ds[1:]
	steward := waitSteward(t, survivors, 2)

	// Deterministic election rule: lowest surviving ring id wins.
	lowest := survivors[0]
	for _, d := range survivors[1:] {
		if d.SelfID() < lowest.SelfID() {
			lowest = d
		}
	}
	if steward != lowest {
		t.Fatalf("steward %s is not the lowest surviving id %s", steward.SelfID(), lowest.SelfID())
	}

	// The barrier and the old steward's crash record reach every
	// survivor: same epoch, same seq, member table of 3.
	waitFor(t, 15*time.Second, func() bool {
		for _, d := range survivors {
			if d.Epoch() != 2 || d.MemberCount() != 3 || d.Seq() != steward.Seq() {
				return false
			}
		}
		return true
	}, "survivors converge on epoch 2")

	// Writes resume through every survivor (members forward with
	// retry; the steward serializes).
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

	// Byte-identical mirrors, and both the pre- and post-failover
	// catalogue serve everywhere.
	want := mirrorState(t, steward)
	for i, d := range survivors {
		if got := mirrorState(t, d); got != want {
			t.Fatalf("survivor %d mirror diverged:\n got %s\nwant %s", i, got, want)
		}
		for j := 0; j < 10; j++ {
			k := fmt.Sprintf("pre%02d", j)
			resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "discover", Key: k})
			if err != nil || !resp.Found {
				t.Fatalf("discover %s on survivor %d: found=%v err=%v", k, i, resp != nil && resp.Found, err)
			}
		}
		if _, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "validate"}); err != nil {
			t.Fatalf("validate survivor %d: %v", i, err)
		}
	}
	if st, err := GetStatus(ctx, steward.Addr()); err != nil || st.Role != "steward" || st.Epoch != 2 {
		t.Fatalf("steward status = %+v, err %v", st, err)
	}
}

// A member that missed APPLY broadcasts (dropped by fault injection)
// converges after the failover barrier: the new steward replays the
// gap from its apply log.
func TestFailoverReplaysDroppedBroadcasts(t *testing.T) {
	faults := transport.NewFaults(11)
	cfg := failoverConfig(1)
	cfg.Net = faults
	ds := []*Daemon{startDaemon(t, cfg)}
	for i := 1; i < 4; i++ {
		ds = append(ds, startDaemon(t, failoverConfig(int64(i+1), ds[0].Addr())))
	}
	register(t, ds[0], "base", "v")

	// Find the survivor that will NOT win (highest id): drop the
	// steward's broadcasts to it so it falls behind.
	lagging := ds[1]
	for _, d := range ds[2:] {
		if d.SelfID() > lagging.SelfID() {
			lagging = d
		}
	}
	faults.Inject(transport.FaultRule{Type: transport.FrameApply, Addr: lagging.Addr(), Drop: true})
	for i := 0; i < 6; i++ {
		register(t, ds[0], fmt.Sprintf("gap%02d", i), "v")
	}
	// Replicate so the steward's own nodes survive its crash; the
	// OpReplicate broadcast to the lagging member drops too, widening
	// the replayed gap by one.
	if err := ds[0].ReplicateNow(); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if lagging.Seq() >= ds[0].Seq() {
		t.Fatalf("fault hook failed: lagging member at seq %d, steward at %d", lagging.Seq(), ds[0].Seq())
	}

	ds[0].Cluster().Stop()
	survivors := ds[1:]
	steward := waitSteward(t, survivors, 2)
	if steward == lagging {
		t.Fatalf("lagging member won the election despite higher id")
	}
	waitFor(t, 15*time.Second, func() bool {
		return lagging.Seq() == steward.Seq() && lagging.Epoch() == 2
	}, "barrier replays the gap to the lagging member")

	want := mirrorState(t, steward)
	if got := mirrorState(t, lagging); got != want {
		t.Fatalf("lagging mirror diverged after replay:\n got %s\nwant %s", got, want)
	}
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("gap%02d", i)
		resp, err := Admin(ctx, lagging.Addr(), &AdminRequest{Op: "discover", Key: k})
		if err != nil || !resp.Found {
			t.Fatalf("dropped-broadcast key %s missing on lagging member: err=%v", k, err)
		}
	}
}

// A member whose gap outran the bounded apply log re-bootstraps with
// a full RESYNC snapshot instead of a replay.
func TestFailoverResyncsMemberTooFarBehind(t *testing.T) {
	faults := transport.NewFaults(13)
	cfg := failoverConfig(1)
	cfg.Net = faults
	ds := []*Daemon{startDaemon(t, cfg)}
	for i := 1; i < 4; i++ {
		ds = append(ds, startDaemon(t, failoverConfig(int64(i+1), ds[0].Addr())))
	}
	register(t, ds[0], "base", "v")

	lagging := ds[1]
	for _, d := range ds[2:] {
		if d.SelfID() > lagging.SelfID() {
			lagging = d
		}
	}
	faults.Inject(transport.FaultRule{Type: transport.FrameApply, Addr: lagging.Addr(), Drop: true})
	// More missed records than the apply log holds: it no longer covers
	// the gap and the barrier must take the RESYNC branch.
	for i := 0; i < applyLogSize+8; i++ {
		register(t, ds[0], fmt.Sprintf("far%03d", i), "v")
	}
	if err := ds[0].ReplicateNow(); err != nil {
		t.Fatalf("replicate: %v", err)
	}

	ds[0].Cluster().Stop()
	survivors := ds[1:]
	steward := waitSteward(t, survivors, 2)
	waitFor(t, 15*time.Second, func() bool {
		return lagging.Seq() == steward.Seq() && lagging.Epoch() == 2
	}, "RESYNC re-bootstraps the member")

	want := mirrorState(t, steward)
	if got := mirrorState(t, lagging); got != want {
		t.Fatalf("mirror diverged after resync:\n got %s\nwant %s", got, want)
	}
	ctx := context.Background()
	for i := 0; i < applyLogSize+8; i += 40 {
		k := fmt.Sprintf("far%03d", i)
		resp, err := Admin(ctx, lagging.Addr(), &AdminRequest{Op: "discover", Key: k})
		if err != nil || !resp.Found {
			t.Fatalf("key %s missing after resync: err=%v", k, err)
		}
	}
	if _, err := Admin(ctx, lagging.Addr(), &AdminRequest{Op: "validate"}); err != nil {
		t.Fatalf("validate after resync: %v", err)
	}
}

// partitionedSteward builds the paused-old-steward scene: three
// daemons, each with its own fault plan; the steward (which never
// crashes anyone out: huge miss threshold) is partitioned from the two
// members in both directions, and the members have elected one of
// themselves under epoch 2 while it still believes in epoch 1.
func partitionedSteward(t *testing.T) (old, m1, m2, steward *Daemon, fOld, fM1, fM2 *transport.Faults) {
	t.Helper()
	fOld, fM1, fM2 = transport.NewFaults(17), transport.NewFaults(18), transport.NewFaults(19)

	cfgOld := failoverConfig(1)
	cfgOld.Net = fOld
	cfgOld.MissThreshold = 1 << 20 // the pause: old steward never crashes anyone out
	old = startDaemon(t, cfgOld)

	cfgM1 := failoverConfig(2, old.Addr())
	cfgM1.Net = fM1
	m1 = startDaemon(t, cfgM1)
	cfgM2 := failoverConfig(3, old.Addr())
	cfgM2.Net = fM2
	m2 = startDaemon(t, cfgM2)

	register(t, old, "before", "v")
	// Snapshot replicas onto ring successors so the old steward's
	// eventual crash-out is survivable.
	if err := old.ReplicateNow(); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool {
		return m1.Seq() == old.Seq() && m2.Seq() == old.Seq()
	}, "members in step before the partition")

	// Both directions go dark: the members see the steward dead and
	// elect; the paused steward sees nothing (huge miss threshold).
	fOld.Partition(m1.Addr(), m2.Addr())
	fM1.Partition(old.Addr())
	fM2.Partition(old.Addr())

	steward = waitSteward(t, []*Daemon{m1, m2}, 2)
	if !old.IsSteward() {
		t.Fatalf("old steward must still believe in epoch 1 while partitioned")
	}
	return old, m1, m2, steward, fOld, fM1, fM2
}

// A paused-then-resumed old steward is fenced by the new epoch: its
// late traffic bounces, it deposes itself and rejoins as a plain
// member, and a write originated on it lands through the new steward.
func TestDeposedStewardFencedAndRejoins(t *testing.T) {
	old, m1, m2, steward, fOld, fM1, fM2 := partitionedSteward(t)

	// Heal. The old steward's next act — a write broadcast or a probed
	// STATUS reply — hits the epoch fence, deposes it and triggers the
	// rejoin. The write originated on it must still land: the mutate
	// retry loop forwards to the new steward after the demotion.
	fOld.Clear()
	fM1.Clear()
	fM2.Clear()
	register(t, old, "after", "v")

	waitFor(t, 20*time.Second, func() bool {
		return !old.IsSteward() && old.Epoch() == 2
	}, "old steward deposed by the fence")
	waitFor(t, 20*time.Second, func() bool {
		return old.MemberCount() == 3 && m1.MemberCount() == 3 && m2.MemberCount() == 3 &&
			old.Seq() == steward.Seq() && old.Epoch() == 2
	}, "old steward rejoins as a plain member")

	ctx := context.Background()
	for _, k := range []string{"before", "after"} {
		for i, d := range []*Daemon{old, m1, m2} {
			resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "discover", Key: k})
			if err != nil || !resp.Found {
				t.Fatalf("discover %s on daemon %d after rejoin: err=%v", k, i, err)
			}
		}
	}
	want := mirrorState(t, steward)
	if got := mirrorState(t, old); got != want {
		t.Fatalf("rejoined mirror diverged:\n got %s\nwant %s", got, want)
	}
	if st, err := GetStatus(ctx, old.Addr()); err != nil || st.Role != "member" {
		t.Fatalf("old steward status = %+v, err %v", st, err)
	}
}

// A JOIN that reaches a steward which is fenced during that very join's
// broadcast is refused with a redirect to the steward that deposed it —
// not answered with a mirror of the dead epoch naming the deposed
// daemon as steward.
func TestJoinThroughFencedStewardRedirected(t *testing.T) {
	old, m1, m2, steward, fOld, _, _ := partitionedSteward(t)
	// Let the old steward's broadcasts through again, but not its probes:
	// the join's APPLY must be what meets the fence, not a STATUS reply.
	fOld.Inject(transport.FaultRule{Type: transport.FrameStatus, Drop: true})
	fOld.Heal(m1.Addr(), m2.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rtyp, p, err := transport.RawCall(ctx, old.Addr(), transport.FrameJoin, transport.Marshal(&transport.JoinRequest{
		Version:  transport.HandshakeVersion,
		Alphabet: string(keys.LowerAlnum.Digits()),
		Addr:     "127.0.0.1:1",
		Capacity: 8,
	}))
	if err != nil || rtyp != transport.FrameHello {
		t.Fatalf("raw join: frame %d, err %v", rtyp, err)
	}
	hello := new(transport.HelloInfo)
	err = transport.Unmarshal(p, hello)
	if err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	if hello.Err != ackDeposed || hello.StewardAddr != steward.Addr() || len(hello.Image) != 0 {
		t.Fatalf("fenced join answered Err=%q steward=%q epoch=%d image=%dB; want %q, a redirect to %s and no mirror",
			hello.Err, hello.StewardAddr, hello.Epoch, len(hello.Image), ackDeposed, steward.Addr())
	}
	if old.IsSteward() {
		t.Fatalf("old steward still believes in itself after the fence")
	}
}

// With no quorum possible (two-daemon overlay, steward dead), a
// member's origination exhausts its retry budget and reports the
// typed ErrNoSteward.
func TestOriginationReportsErrNoSteward(t *testing.T) {
	steward := startDaemon(t, failoverConfig(1))
	cfg := failoverConfig(2, steward.Addr())
	cfg.ForwardRetry = Duration(1500 * time.Millisecond)
	member := startDaemon(t, cfg)
	register(t, member, "ok", "v")

	steward.Cluster().Stop()
	waitFor(t, 10*time.Second, func() bool {
		return member.maint != nil && len(member.Status().Links) > 0
	}, "member probes the dead steward")

	start := time.Now()
	err := member.mutate(transport.OpRegister, "lost", "v")
	if !errors.Is(err, ErrNoSteward) {
		t.Fatalf("want ErrNoSteward, got %v", err)
	}
	if elapsed := time.Since(start); elapsed < 1200*time.Millisecond {
		t.Fatalf("retry budget not spent: returned after %v", elapsed)
	}
	if member.IsSteward() {
		t.Fatalf("two-daemon overlay must not fail over (no quorum)")
	}
}

// A steward refusal that quotes client input is still a semantic
// refusal: a key spelling one of the retry phrases, invalid in the
// overlay's alphabet, fails at once with the alphabet error instead of
// being retried as steward churn for the whole ForwardRetry budget.
func TestRefusalQuotingRetryPhraseFailsFast(t *testing.T) {
	steward := startDaemon(t, failoverConfig(1))
	member := startDaemon(t, failoverConfig(2, steward.Addr()))

	start := time.Now()
	err := member.mutate(transport.OpRegister, "daemon: not steward", "v")
	if err == nil || !strings.Contains(err.Error(), "not in alphabet") {
		t.Fatalf("want the alphabet refusal, got %v", err)
	}
	if errors.Is(err, ErrNoSteward) {
		t.Fatalf("semantic refusal reported as steward churn: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("refusal took %v: retried as if the steward were churning", elapsed)
	}
}

// A joiner holding a stale steward redirect (the steward died between
// the redirect and the dial) falls back to the live members and joins
// through the newly elected steward.
func TestStaleJoinRedirectReResolves(t *testing.T) {
	ds := []*Daemon{startDaemon(t, failoverConfig(1))}
	for i := 1; i < 4; i++ {
		ds = append(ds, startDaemon(t, failoverConfig(int64(i+1), ds[0].Addr())))
	}
	// Kill the steward and immediately bootstrap a joiner via a
	// member: the member's first redirect names the dead steward; the
	// joiner must evict that hint and re-ask instead of dialing the
	// corpse until timeout.
	ds[0].Cluster().Stop()
	survivors := ds[1:]
	joiner := startDaemon(t, failoverConfig(9, survivors[0].Addr(), survivors[1].Addr()))

	steward := waitSteward(t, survivors, 2)
	waitFor(t, 20*time.Second, func() bool {
		return joiner.MemberCount() == 4 && steward.MemberCount() == 4
	}, "joiner lands in the post-failover overlay")
	register(t, joiner, "joined", "v")
	ctx := context.Background()
	resp, err := Admin(ctx, steward.Addr(), &AdminRequest{Op: "discover", Key: "joined"})
	if err != nil || !resp.Found {
		t.Fatalf("joiner's write missing on steward: err=%v", err)
	}
}

// Delayed election traffic (jittered fault delays on ELECT frames)
// slows the election but does not break it: same winner, same
// convergence.
func TestFailoverUnderElectionDelay(t *testing.T) {
	faults := make([]*transport.Faults, 4)
	ds := make([]*Daemon, 0, 4)
	for i := 0; i < 4; i++ {
		faults[i] = transport.NewFaults(int64(23 + i))
		faults[i].Inject(transport.FaultRule{
			Type: transport.FrameElect, Delay: 150 * time.Millisecond, Jitter: 0.4,
		})
		cfg := failoverConfig(int64(i + 1))
		if i > 0 {
			cfg.Bootstrap = []string{ds[0].Addr()}
		}
		cfg.Net = faults[i]
		ds = append(ds, startDaemon(t, cfg))
	}
	register(t, ds[0], "delayed", "v")
	ds[0].Cluster().Stop()
	survivors := ds[1:]
	steward := waitSteward(t, survivors, 2)
	waitFor(t, 15*time.Second, func() bool {
		for _, d := range survivors {
			if d.Epoch() != 2 || d.Seq() != steward.Seq() {
				return false
			}
		}
		return true
	}, "survivors converge despite delayed ELECT frames")
	register(t, steward, "postdelay", "v")
	resp, err := Admin(context.Background(), survivors[len(survivors)-1].Addr(),
		&AdminRequest{Op: "discover", Key: "postdelay"})
	if err != nil || !resp.Found {
		t.Fatalf("postdelay write missing: err=%v", err)
	}
}
