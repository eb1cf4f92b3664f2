// The admin client keeps its connections, and the write path it drives
// stays allocation-lean: the apply log, its boundary and mutate.

package daemon

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/transport"
)

// stats reports a client's dials so far and its idle connections.
func (cl *adminClient) stats() (dials, idle int) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return int(cl.dials.Load()), len(cl.idle)
}

// freshClient empties the process-wide client's idle list and returns
// a function reporting the dials made since and the connections idle.
func freshClient() func() (dials, idle int) {
	adminConns.mu.Lock()
	for _, ic := range adminConns.idle {
		ic.cc.Close()
	}
	adminConns.idle = nil
	adminConns.mu.Unlock()
	base, _ := adminConns.stats()
	return func() (int, int) {
		dials, idle := adminConns.stats()
		return dials - base, idle
	}
}

// echoPeers starts a cluster of n listeners whose control handler
// echoes STATUS payloads at once and ADMIN payloads once release is
// called; arrived counts the ADMIN frames waiting.
func echoPeers(t *testing.T, n int) (addrs []string, release func(), arrived chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	arrived = make(chan struct{}, 64)
	srv, err := transport.StartOpts(keys.LowerAlnum, slices.Repeat([]int{8}, n), 1, transport.Options{
		Control: func(typ byte, payload []byte) (byte, []byte) {
			if typ == transport.FrameAdmin {
				arrived <- struct{}{}
				<-gate
			}
			return transport.FrameStatusResp, payload
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release() // Stop joins the handlers still holding a request
		srv.Stop()
	})
	for _, a := range srv.Addrs() {
		addrs = append(addrs, a)
	}
	return addrs, release, arrived
}

func mustEcho(t *testing.T, cl *adminClient, addr, msg string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rtyp, p, err := cl.call(ctx, addr, transport.FrameStatus, []byte(msg))
	if err != nil || rtyp != transport.FrameStatusResp || string(p) != msg {
		t.Fatalf("echo %q to %s = frame %d %q, %v", msg, addr, rtyp, p, err)
	}
}

func wantStats(t *testing.T, cl *adminClient, dials, idle int, when string) {
	t.Helper()
	if d, i := cl.stats(); d != dials || i != idle {
		t.Fatalf("%s: %d dials, %d idle; want %d, %d", when, d, i, dials, idle)
	}
}

// A call that times out or is cancelled closes its connection, so the
// reply the server writes afterwards has nowhere to go: the next call
// on that address dials and reads its own answer.
func TestAdminFailedCallClosesConnection(t *testing.T) {
	addrs, release, arrived := echoPeers(t, 1)
	cl := &adminClient{}
	mustEcho(t, cl, addrs[0], "first")
	wantStats(t, cl, 1, 1, "after one call")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, _, err := cl.call(ctx, addrs[0], transport.FrameAdmin, []byte("late-1"))
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("timed-out call: %v", err)
	}
	wantStats(t, cl, 1, 0, "after a timed-out call on the kept connection")

	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		<-arrived
		<-arrived
		cancel()
	}()
	if _, _, err := cl.call(ctx, addrs[0], transport.FrameAdmin, []byte("late-2")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: %v", err)
	}
	wantStats(t, cl, 2, 0, "after a cancelled call")

	release() // both late replies leave now
	for i := 0; i < 20; i++ {
		mustEcho(t, cl, addrs[0], "next")
	}
	wantStats(t, cl, 3, 1, "after the calls that follow")
}

// Idle connections are capped per address and in total, the oldest
// going first.
func TestAdminIdleCaps(t *testing.T) {
	addrs, release, arrived := echoPeers(t, adminIdleTotal+4)
	cl := &adminClient{}

	// More calls in flight to one address than it may keep idle.
	n := adminIdlePerAddr + 3
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, _, err := cl.call(ctx, addrs[0], transport.FrameAdmin, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-arrived
	}
	release()
	wg.Wait()
	wantStats(t, cl, n, adminIdlePerAddr, "after concurrent calls to one address")

	// One call to each of more addresses than the client keeps in all:
	// the first address's connections are the oldest and go first.
	for _, a := range addrs[1:] {
		mustEcho(t, cl, a, "x")
	}
	dials := n + len(addrs) - 1
	wantStats(t, cl, dials, adminIdleTotal, "after one call per address")
	mustEcho(t, cl, addrs[len(addrs)-1], "kept")
	wantStats(t, cl, dials, adminIdleTotal, "calling the newest address again")
	mustEcho(t, cl, addrs[0], "evicted")
	wantStats(t, cl, dials+1, adminIdleTotal, "calling the oldest address again")
}

func TestAdminReusesConnection(t *testing.T) {
	d := startDaemon(t, testConfig(1))
	stats := freshClient()
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("svc%03d", i%50)
		if _, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "register", Key: k, Value: "v"}); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "discover", Key: k})
		if err != nil || !resp.Found {
			t.Fatalf("discover %d: %+v, %v", i, resp, err)
		}
	}
	if dials, idle := stats(); dials != 1 || idle != 1 {
		t.Fatalf("2000 sequential calls: %d dials, %d idle; want 1, 1", dials, idle)
	}
}

// A daemon restarted on the same address costs the caller one redial,
// not an error, and the dead connection does not stay in the idle list.
func TestAdminRedialsAfterRestart(t *testing.T) {
	cfg := testConfig(1)
	d, err := Start(cfg, quietf(t))
	if err != nil {
		t.Fatal(err)
	}
	stats := freshClient()
	ctx := context.Background()
	if _, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "register", Key: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	cfg.Listen = d.Addr()
	d.Close()
	d2 := startDaemon(t, cfg)
	if d2.Addr() != cfg.Listen {
		t.Fatalf("restarted on %s, want %s", d2.Addr(), cfg.Listen)
	}
	if _, err := Admin(ctx, d2.Addr(), &AdminRequest{Op: "register", Key: "k", Value: "v"}); err != nil {
		t.Fatalf("first call after the restart: %v", err)
	}
	if st, err := GetStatus(ctx, d2.Addr()); err != nil || st.Nodes == 0 {
		t.Fatalf("status after the restart: %+v, %v", st, err)
	}
	if dials, idle := stats(); dials != 2 || idle != 1 {
		t.Fatalf("across a restart: %d dials, %d idle; want 2, 1", dials, idle)
	}
}

func TestAdminConcurrent(t *testing.T) {
	ds := startOverlay(t, 3)
	stats := freshClient()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// A write is acknowledged after every mirror applied it,
				// so any daemon answers for it.
				k, v := fmt.Sprintf("g%02dk%03d", g, i/4), fmt.Sprintf("v%d", g)
				w, r := ds[(g+i)%3].Addr(), ds[(g+i+1)%3].Addr()
				var resp *AdminResponse
				var err error
				ok := true
				switch i % 4 {
				case 0:
					_, err = Admin(ctx, w, &AdminRequest{Op: "register", Key: k, Value: v})
				case 1:
					resp, err = Admin(ctx, r, &AdminRequest{Op: "discover", Key: k})
					ok = err == nil && resp.Found && len(resp.Values) == 1 && resp.Values[0] == v
				case 2:
					resp, err = Admin(ctx, r, &AdminRequest{Op: "complete", Prefix: k})
					ok = err == nil && len(resp.Keys) == 1 && resp.Keys[0] == k
				case 3:
					var st *Status
					st, err = GetStatus(ctx, r)
					ok = err == nil && st.Addr == r && st.Peers == 3
				}
				if err != nil || !ok {
					t.Errorf("goroutine %d op %d on %s: %+v, %v", g, i, k, resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if dials, idle := stats(); idle < 3 || idle > 3*adminIdlePerAddr {
		t.Fatalf("after 32 concurrent callers: %d dials, %d idle; want 3..%d idle", dials, idle, 3*adminIdlePerAddr)
	}
}

// The log's boundary: the tail is exactly the last applyLogSize
// records, however many slides the backing array has made, and FETCH
// serves that tail in order. (TestMissedBroadcastHealsMidEpoch pins
// the same boundary end to end: records at the bound, image past it.)
func TestApplyLogBoundary(t *testing.T) {
	d := startDaemon(t, testConfig(1))
	for i := 0; i < 3*applyLogSize+7; i++ {
		register(t, d, fmt.Sprintf("k%04d", i), "v")
	}
	seq := d.Seq()
	d.mu.Lock()
	in, out := d.logCoversLocked(seq-applyLogSize+1), d.logCoversLocked(seq-applyLogSize)
	d.mu.Unlock()
	if !in || out {
		t.Fatalf("at seq %d: covers(seq-%d+1) = %v, covers(seq-%d) = %v; want true, false", seq, applyLogSize, in, applyLogSize, out)
	}
	fetch := func(from uint64) *transport.FetchReply {
		_, p := d.handleFetch(transport.Marshal(&transport.FetchRequest{From: from}))
		var rep transport.FetchReply
		if err := transport.Unmarshal(p, &rep); err != nil {
			t.Fatal(err)
		}
		return &rep
	}
	rep := fetch(seq - applyLogSize + 1)
	if rep.Err != "" || len(rep.Records) != applyLogSize {
		t.Fatalf("fetch of the whole tail: %d records, err %q", len(rep.Records), rep.Err)
	}
	for i, rec := range rep.Records {
		want := fmt.Sprintf("k%04d", 3*applyLogSize+7-applyLogSize+i)
		if rec.Seq != seq-applyLogSize+1+uint64(i) || string(rec.Key) != want {
			t.Fatalf("record %d: seq %d key %s, want seq %d key %s", i, rec.Seq, rec.Key, seq-applyLogSize+1+uint64(i), want)
		}
	}
	if rep := fetch(seq - 2); len(rep.Records) != 3 || rep.Records[0].Seq != seq-2 {
		t.Fatalf("fetch of the last three: %d records", len(rep.Records))
	}
	if rep := fetch(seq - applyLogSize); rep.Err == "" {
		t.Fatalf("fetch from past the tail served %d records", len(rep.Records))
	}
}

// Past its bound the apply log neither allocates nor copies itself per
// record.
func TestAllocsPerApply(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := &Daemon{}
	rec := &transport.ApplyRecord{Op: transport.OpRegister, Key: "k", Value: "v"}
	for i := 0; i < 2*applyLogSize+1; i++ {
		d.appendLogLocked(rec)
	}
	if n := testing.AllocsPerRun(4*applyLogSize, func() { d.appendLogLocked(rec) }); n != 0 {
		t.Fatalf("appendLogLocked past the bound: %v allocs per record, want 0", n)
	}
}

// A lone steward re-registering an existing pair allocates a small
// fixed number of objects; a Backoff (and its 607-word random source)
// per write, or a log copy per commit, would not fit under the ceiling.
func TestAllocsPerMutate(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := startDaemon(t, testConfig(1))
	for i := 0; i < 2*applyLogSize+1; i++ {
		register(t, d, "svc", "v")
	}
	const ceiling = 4
	if n := testing.AllocsPerRun(1000, func() { _ = d.mutate(transport.OpRegister, "svc", "v") }); n > ceiling {
		t.Fatalf("mutate on a lone steward: %v allocs per write, ceiling %d", n, ceiling)
	}
}
