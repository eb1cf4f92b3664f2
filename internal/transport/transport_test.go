package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

func startTCP(t *testing.T, n int) *Cluster {
	t.Helper()
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 1 << 20
	}
	c, err := Start(keys.LowerAlnum, caps, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestStartRejectsEmpty(t *testing.T) {
	if _, err := Start(keys.LowerAlnum, nil, 1); err == nil {
		t.Fatalf("empty cluster must fail")
	}
}

func TestDiscoverOverTCP(t *testing.T) {
	c := startTCP(t, 6)
	corpus := workload.GridCorpus(80)
	for _, k := range corpus {
		if err := c.Register(k, "ep:"+string(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range corpus {
		res, err := c.Discover(k)
		if err != nil {
			t.Fatalf("discover %q: %v", k, err)
		}
		if !res.Found {
			t.Fatalf("%q not found over TCP", k)
		}
		if len(res.Values) != 1 || res.Values[0] != "ep:"+string(k) {
			t.Fatalf("values = %v", res.Values)
		}
		// At least the client-to-entry wire transfer happened.
		if res.PhysicalHops < 1 {
			t.Fatalf("physical hops = %d", res.PhysicalHops)
		}
	}
	res, err := c.Discover("zz_absent")
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("absent key found")
	}
}

func TestDiscoverEmptyTreeTCP(t *testing.T) {
	c := startTCP(t, 3)
	res, err := c.Discover("x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("empty tree cannot satisfy")
	}
}

func TestConcurrentTCPDiscovery(t *testing.T) {
	c := startTCP(t, 8)
	corpus := workload.GridCorpus(100)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := corpus[(w*17+i)%len(corpus)]
				res, err := c.Discover(k)
				if err != nil || !res.Found {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAddPeerWhileServing(t *testing.T) {
	c := startTCP(t, 4)
	corpus := workload.GridCorpus(40)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddPeer(1 << 20); err != nil {
		t.Fatal(err)
	}
	if c.NumPeers() != 5 {
		t.Fatalf("NumPeers = %d", c.NumPeers())
	}
	for _, k := range corpus {
		res, err := c.Discover(k)
		if err != nil || !res.Found {
			t.Fatalf("%q lost after join: %v", k, err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddrsExposed(t *testing.T) {
	c := startTCP(t, 3)
	addrs := c.Addrs()
	if len(addrs) != 3 {
		t.Fatalf("Addrs = %v", addrs)
	}
	for id, addr := range addrs {
		if addr == "" {
			t.Fatalf("peer %q has empty addr", id)
		}
	}
	if c.NumNodes() != 0 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
}

func TestStopRejectsOps(t *testing.T) {
	c := startTCP(t, 2)
	if err := c.Register("k", "v"); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop()
	if err := c.Register("k2", "v"); !errors.Is(err, ErrStopped) {
		t.Fatalf("Register after stop = %v", err)
	}
	if _, err := c.Discover("k"); !errors.Is(err, ErrStopped) {
		t.Fatalf("Discover after stop = %v", err)
	}
	if _, err := c.AddPeer(5); !errors.Is(err, ErrStopped) {
		t.Fatalf("AddPeer after stop = %v", err)
	}
	if ok, err := c.Unregister("k", "v"); ok || !errors.Is(err, ErrStopped) {
		t.Fatalf("Unregister after stop = %v, %v", ok, err)
	}
	c.Mu.RLock()
	var vals []string
	node, _, ok := c.Net.NodeAt("k")
	if ok {
		vals = node.SortedValues()
	}
	n := c.Net.NumNodes()
	c.Mu.RUnlock()
	if !ok || len(vals) != 1 || n != 1 {
		t.Fatalf("the tree holds %d nodes and k = %v after refused mutations, want k = [v] alone", n, vals)
	}
}

// TestAddPeerBindFailure pins the join order on real sockets: with a
// fixed-port Bind the second local peer cannot bind, and it must not
// be left in the ring without an address — every walk through its
// nodes would fail.
func TestAddPeerBindFailure(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bind := probe.Addr().String()
	probe.Close()
	c, err := StartOpts(keys.LowerAlnum, []int{1 << 20}, 3, Options{Bind: bind})
	if err != nil {
		t.Skipf("fixed port %s was taken meanwhile: %v", bind, err)
	}
	t.Cleanup(c.Stop)
	corpus := workload.GridCorpus(30)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddPeer(1 << 20); err == nil {
		t.Fatal("second peer bound an address already in use")
	}
	if c.NumPeers() != 1 || len(c.Addrs()) != 1 {
		t.Fatalf("failed join left %d peers, %d addresses", c.NumPeers(), len(c.Addrs()))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range corpus {
		if res, err := c.Discover(k); err != nil || !res.Found {
			t.Fatalf("%q after the failed join: found=%v err=%v", k, res.Found, err)
		}
	}
}

func TestHopCountsMatchSequentialEngine(t *testing.T) {
	// The TCP path must route the same tree walk as the sequential
	// engine: logical hops per discovery stay within the tree depth
	// bound and physical <= logical + 1 (client entry transfer).
	c := startTCP(t, 6)
	corpus := workload.GridCorpus(60)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range corpus[:20] {
		res, err := c.Discover(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.PhysicalHops > res.LogicalHops+1 {
			t.Fatalf("physical %d > logical %d + 1", res.PhysicalHops, res.LogicalHops)
		}
		if res.LogicalHops > 40 {
			t.Fatalf("implausible path length %d", res.LogicalHops)
		}
	}
}

// A control reply too large for one frame (a HELLO for a huge
// catalogue, an ADMIN completion) cannot be written; the server must
// say so in band instead of leaving the caller to its timeout.
func TestOversizedControlReplyAnsweredInBand(t *testing.T) {
	srv, err := StartOpts(keys.LowerAlnum, []int{8}, 1, Options{
		Control: func(typ byte, payload []byte) (byte, []byte) {
			return FrameHello, make([]byte, maxFramePayload+1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	var addr string
	for _, a := range srv.Addrs() {
		addr = a
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rtyp, p, err := RawCall(ctx, addr, FrameJoin, nil)
	if err != nil {
		t.Fatalf("oversized reply left the caller waiting: %v", err)
	}
	if rtyp != FrameAck {
		t.Fatalf("reply frame %d, want an ack", rtyp)
	}
	var ack Ack
	if err := Unmarshal(p, &ack); err != nil || ack.Err != errFrameTooLarge.Error() {
		t.Fatalf("ack = %q, %v; want %q", ack.Err, err, errFrameTooLarge)
	}
}
