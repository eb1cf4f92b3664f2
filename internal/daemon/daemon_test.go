package daemon

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"dlpt/internal/catalog"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/persist"
	"dlpt/internal/transport"
)

// quietf discards daemon logs unless -v.
func quietf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out: %s", msg)
}

// testConfig is a loopback daemon config with fast timers.
func testConfig(seed int64, bootstrap ...string) Config {
	return Config{
		Listen:         "127.0.0.1:0",
		Bootstrap:      bootstrap,
		Capacity:       8,
		Alphabet:       "lower_alnum",
		Seed:           seed,
		ProbeEvery:     Duration(50 * time.Millisecond),
		MissThreshold:  3,
		ReplicateEvery: Duration(time.Hour), // keep ticks out of short tests
		JoinTimeout:    Duration(15 * time.Second),
	}
}

func startDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := Start(cfg, quietf(t))
	if err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// startOverlay brings up a steward plus n-1 members joined through it.
func startOverlay(t *testing.T, n int) []*Daemon {
	t.Helper()
	ds := []*Daemon{startDaemon(t, testConfig(1))}
	for i := 1; i < n; i++ {
		ds = append(ds, startDaemon(t, testConfig(int64(i+1), ds[0].Addr())))
	}
	return ds
}

// Three daemons form one overlay through the bootstrap handshake and
// serve registrations, discoveries and streamed completions across
// process... boundaries (in-process here; cmd/dlptd's smoke test runs
// the real three-process version).
func TestThreeDaemonOverlay(t *testing.T) {
	ds := startOverlay(t, 3)
	for i, d := range ds {
		if got := d.MemberCount(); got != 3 {
			t.Fatalf("daemon %d member count = %d, want 3", i, got)
		}
		if got := d.Cluster().NumPeers(); got != 3 {
			t.Fatalf("daemon %d peer count = %d, want 3", i, got)
		}
	}
	// Mutate through every daemon's admin surface: members forward to
	// the steward, the steward broadcasts, all mirrors converge.
	ctx := context.Background()
	entries := map[string]string{
		"blas3dgemm": "host1:4000",
		"blas3dtrsm": "host2:4000",
		"s3lsort":    "host3:4000",
		"fftw3":      "host1:4100",
	}
	i := 0
	for k, v := range entries {
		if _, err := Admin(ctx, ds[i%3].Addr(), &AdminRequest{Op: "register", Key: k, Value: v}); err != nil {
			t.Fatalf("register %s via daemon %d: %v", k, i%3, err)
		}
		i++
	}
	for idx, d := range ds {
		for k, v := range entries {
			resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "discover", Key: k})
			if err != nil {
				t.Fatalf("discover %s on daemon %d: %v", k, idx, err)
			}
			if !resp.Found || len(resp.Values) != 1 || resp.Values[0] != v {
				t.Fatalf("discover %s on daemon %d = %+v, want %s", k, idx, resp, v)
			}
		}
		resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "complete", Prefix: "blas3"})
		if err != nil {
			t.Fatalf("complete on daemon %d: %v", idx, err)
		}
		if len(resp.Keys) != 2 {
			t.Fatalf("complete blas3 on daemon %d = %v, want 2 keys", idx, resp.Keys)
		}
		if _, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "validate"}); err != nil {
			t.Fatalf("validate on daemon %d: %v", idx, err)
		}
	}
	// Every mirror applied the same serialized mutation stream.
	seq := ds[0].Seq()
	for idx, d := range ds {
		if d.Seq() != seq {
			t.Fatalf("daemon %d seq = %d, steward seq = %d", idx, d.Seq(), seq)
		}
	}
	st, err := GetStatus(ctx, ds[1].Addr())
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Role != "member" || st.Peers != 3 || len(st.Members) != 3 {
		t.Fatalf("status = %+v", st)
	}
}

// A JOIN with the wrong handshake version — the previous wire revision
// (4: HELLO and RESYNC carried an inline node list) as much as a
// future one — is rejected in-band and the joiner fails fast instead of retrying.
func TestJoinVersionMismatchRejected(t *testing.T) {
	s := startDaemon(t, testConfig(1))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, version := range []int{4, transport.HandshakeVersion + 98} {
		jr := &transport.JoinRequest{
			Version:  version,
			Alphabet: string(keys.LowerAlnum.Digits()),
			Addr:     "127.0.0.1:1",
			Capacity: 8,
		}
		rtyp, p, err := transport.RawCall(ctx, s.Addr(), transport.FrameJoin, transport.Marshal(jr))
		if err != nil || rtyp != transport.FrameHello {
			t.Fatalf("raw join v%d: frame %d, err %v", version, rtyp, err)
		}
		hello := new(transport.HelloInfo)
		err = transport.Unmarshal(p, hello)
		if err != nil {
			t.Fatalf("decode hello: %v", err)
		}
		if !strings.Contains(hello.Err, "handshake version") {
			t.Fatalf("v%d: hello.Err = %q, want version rejection", version, hello.Err)
		}
	}
	// The daemon-level join loop treats it as permanent.
	cfg := testConfig(9, s.Addr())
	cfg.JoinTimeout = Duration(10 * time.Second)
	cfg.Alphabet = "binary" // also incompatible: alphabet mismatch
	start := time.Now()
	if _, err := Start(cfg, quietf(t)); err == nil {
		t.Fatal("join with mismatched alphabet succeeded")
	} else if !strings.Contains(err.Error(), "alphabet") {
		t.Fatalf("join error = %v, want alphabet rejection", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("incompatible join retried instead of failing fast")
	}
}

// A second JOIN advertising an address already in the member table is
// refused: the overlay would otherwise route one listener as two
// peers.
func TestJoinDuplicateAddressRejected(t *testing.T) {
	ds := startOverlay(t, 2)
	jr := &transport.JoinRequest{
		Version:  transport.HandshakeVersion,
		Alphabet: string(keys.LowerAlnum.Digits()),
		Addr:     ds[1].Addr(),
		Capacity: 8,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rtyp, p, err := transport.RawCall(ctx, ds[0].Addr(), transport.FrameJoin, transport.Marshal(jr))
	if err != nil || rtyp != transport.FrameHello {
		t.Fatalf("raw join: frame %d, err %v", rtyp, err)
	}
	hello := new(transport.HelloInfo)
	err = transport.Unmarshal(p, hello)
	if err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	if !strings.Contains(hello.Err, "address already joined") {
		t.Fatalf("hello.Err = %q, want duplicate-address rejection", hello.Err)
	}
}

// A member started before its bootstrap peer keeps re-dialing with
// backoff and joins once the steward comes up.
func TestJoinRetriesUntilBootstrapUp(t *testing.T) {
	// Reserve a port for the future steward, then free it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stewardAddr := ln.Addr().String()
	ln.Close()

	memberCh := make(chan error, 1)
	var member *Daemon
	go func() {
		var err error
		member, err = Start(testConfig(2, stewardAddr), quietf(t))
		memberCh <- err
	}()
	time.Sleep(400 * time.Millisecond) // let a few dials fail first
	select {
	case err := <-memberCh:
		t.Fatalf("member finished before steward existed: %v", err)
	default:
	}
	cfg := testConfig(1)
	cfg.Listen = stewardAddr
	steward := startDaemon(t, cfg)
	if err := <-memberCh; err != nil {
		t.Fatalf("member join after steward up: %v", err)
	}
	defer member.Close()
	waitFor(t, 5*time.Second, func() bool { return steward.MemberCount() == 2 },
		"steward sees the late joiner")
}

// A bootstrap target that dies mid-handshake (accepts, then cuts the
// connection) is skipped and the joiner fails over to the next
// bootstrap address.
func TestJoinFailsOverWhenBootstrapDiesMidJoin(t *testing.T) {
	flaky, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	go func() {
		for {
			conn, err := flaky.Accept()
			if err != nil {
				return
			}
			conn.Close() // cut the join mid-handshake
		}
	}()
	steward := startDaemon(t, testConfig(1))
	member := startDaemon(t, testConfig(2, flaky.Addr().String(), steward.Addr()))
	if member.MemberCount() != 2 {
		t.Fatalf("member count = %d, want 2", member.MemberCount())
	}
	if member.Status().StewardAddr != steward.Addr() {
		t.Fatalf("joined through %s, want %s", member.Status().StewardAddr, steward.Addr())
	}
}

// Killing a member abruptly trips the steward's maintenance loop: the
// peer is declared crashed, its nodes recover from ring-successor
// replicas, and the surviving mirrors stay valid and convergent.
func TestMemberCrashRecovery(t *testing.T) {
	ds := startOverlay(t, 3)
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("svc%02d", i)
		if _, err := Admin(ctx, ds[i%3].Addr(), &AdminRequest{Op: "register", Key: k, Value: "v"}); err != nil {
			t.Fatalf("register %s: %v", k, err)
		}
	}
	// Snapshot replicas onto ring successors so a crash is survivable.
	if err := ds[0].ReplicateNow(); err != nil {
		t.Fatalf("replicate: %v", err)
	}

	// Abrupt death: stop the cluster without the graceful leave.
	ds[2].Cluster().Stop()
	waitFor(t, 10*time.Second, func() bool { return ds[0].MemberCount() == 2 },
		"steward crashes the dead member out")
	waitFor(t, 10*time.Second, func() bool { return ds[1].MemberCount() == 2 },
		"surviving member applies the crash")
	for i, d := range []*Daemon{ds[0], ds[1]} {
		if _, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "validate"}); err != nil {
			t.Fatalf("validate on survivor %d: %v", i, err)
		}
	}
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("svc%02d", i)
		resp, err := Admin(ctx, ds[1].Addr(), &AdminRequest{Op: "discover", Key: k})
		if err != nil {
			t.Fatalf("discover %s after crash: %v", k, err)
		}
		if !resp.Found {
			t.Fatalf("key %s lost after crash recovery", k)
		}
	}
	if ds[0].Seq() != ds[1].Seq() {
		t.Fatalf("seq diverged after crash: steward %d, member %d", ds[0].Seq(), ds[1].Seq())
	}
}

// A member's Close leaves gracefully: its nodes hand off and the
// remaining overlay keeps every registration.
func TestGracefulLeave(t *testing.T) {
	ds := startOverlay(t, 3)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("leave%02d", i)
		if _, err := Admin(ctx, ds[2].Addr(), &AdminRequest{Op: "register", Key: k, Value: "v"}); err != nil {
			t.Fatalf("register %s: %v", k, err)
		}
	}
	if err := ds[1].Close(); err != nil {
		t.Fatalf("close member: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return ds[0].MemberCount() == 2 },
		"steward processes the leave")
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("leave%02d", i)
		resp, err := Admin(ctx, ds[2].Addr(), &AdminRequest{Op: "discover", Key: k})
		if err != nil || !resp.Found {
			t.Fatalf("discover %s after leave: found=%v err=%v", k, resp != nil && resp.Found, err)
		}
	}
	if _, err := Admin(ctx, ds[0].Addr(), &AdminRequest{Op: "validate"}); err != nil {
		t.Fatalf("validate after leave: %v", err)
	}
}

// A steward restart reloads the durable catalogue into a fresh
// overlay: registrations survive, membership does not (members rejoin
// through the handshake).
func TestStewardCatalogueRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.DataDir = dir
	s, err := Start(cfg, quietf(t))
	if err != nil {
		t.Fatalf("start steward: %v", err)
	}
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("dur%02d", i)
		if _, err := Admin(ctx, s.Addr(), &AdminRequest{Op: "register", Key: k, Value: "v"}); err != nil {
			t.Fatalf("register %s: %v", k, err)
		}
	}
	s.Close()

	s2 := startDaemon(t, cfg)
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("dur%02d", i)
		resp, err := Admin(ctx, s2.Addr(), &AdminRequest{Op: "discover", Key: k})
		if err != nil || !resp.Found {
			t.Fatalf("discover %s after restart: found=%v err=%v", k, resp != nil && resp.Found, err)
		}
	}
	if _, err := Admin(ctx, s2.Addr(), &AdminRequest{Op: "validate"}); err != nil {
		t.Fatalf("validate after restart: %v", err)
	}
}

// The overlay has one byte form: for one state, the image a joiner is
// sent in HELLO and what a restart loads after the next replication
// tick — the newest snapshot file, its journal and the ring journaled
// with it — hold the same peers and entries, and a daemon that installed
// the image holds the steward's catalogue.
func TestJoinImageMatchesSnapshotFile(t *testing.T) {
	cfg := testConfig(1)
	cfg.DataDir = t.TempDir()
	cfg.ProbeEvery = Duration(time.Hour) // the raw joiner below never answers: keep it from being crashed out
	s := startDaemon(t, cfg)
	// Multi-valued, unregistered, re-registered and emptied keys, so the
	// journal the images fold has seen every kind of mutation.
	for i := 0; i < 40; i++ {
		register(t, s, fmt.Sprintf("svc%02d", i), "ep://a")
	}
	for i := 0; i < 40; i += 3 {
		register(t, s, fmt.Sprintf("svc%02d", i), "ep://b")
	}
	for i := 0; i < 40; i += 4 {
		if err := s.mutate(transport.OpUnregister, fmt.Sprintf("svc%02d", i), "ep://a"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i += 8 {
		register(t, s, fmt.Sprintf("svc%02d", i), "ep://a")
	}
	if err := s.ReplicateNow(); err != nil {
		t.Fatal(err)
	}
	register(t, s, "svc99", "ep://late") // past the last snapshot

	m := startDaemon(t, testConfig(2, s.Addr()))
	if got, want := mirrorState(t, m), mirrorState(t, s); got != want {
		t.Fatalf("joiner installed a different state:\n got %s\nwant %s", got, want)
	}
	for _, d := range []*Daemon{s, m} {
		if err := d.Cluster().Validate(); err != nil {
			t.Fatalf("validate %s: %v", d.Addr(), err)
		}
	}

	// A raw JOIN shows the bytes a joiner is sent.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rtyp, p, err := transport.RawCall(ctx, s.Addr(), transport.FrameJoin, transport.Marshal(&transport.JoinRequest{
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
	if err != nil || hello.Err != "" {
		t.Fatalf("raw join: %v %s", err, hello.Err)
	}
	if err := s.ReplicateNow(); err != nil {
		t.Fatal(err)
	}
	st, err := s.store.Load()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	sentPeers, sentNodes := parseImage(t, hello.Image)
	if len(sentPeers) != 3 || len(sentNodes) != 38 {
		t.Fatalf("image carries %d peers and %d entries, want 3 and 38", len(sentPeers), len(sentNodes))
	}
	var sent []core.KV
	for _, e := range sentNodes {
		for _, v := range e.Values {
			sent = append(sent, core.KV{Key: keys.Key(e.Key), Value: v})
		}
	}
	var loaded []core.KV
	persist.NewFold(st.Snapshot, st.Journal).Ascend(func(e catalog.Entry) bool {
		for _, v := range e.Values {
			loaded = append(loaded, core.KV{Key: keys.Key(e.Key), Value: v})
		}
		return true
	})
	if !reflect.DeepEqual(sentPeers, st.Peers) || !reflect.DeepEqual(sent, loaded) {
		t.Fatalf("HELLO image and the state a restart loads differ:\nhello %+v %+v\n load %+v %+v",
			sentPeers, sent, st.Peers, loaded)
	}
}

// A bootstrap address that answers JOIN with a bare ack — here a
// listener with no daemon behind it; in production an admission too
// large for one frame — is a refusal no retry can change: the joiner
// fails at once, with the reason.
func TestJoinAnsweredByAckFailsFast(t *testing.T) {
	c, err := transport.Start(keys.LowerAlnum, []int{8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	var addr string
	for _, a := range c.Addrs() {
		addr = a
	}
	start := time.Now()
	_, err = Start(testConfig(2, addr), quietf(t))
	if err == nil || !strings.Contains(err.Error(), "no control handler") {
		t.Fatalf("join error = %v, want the ack's reason", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("join retried a refusal that cannot heal")
	}
}
