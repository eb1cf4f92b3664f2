package transport

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/workload"
)

// registerCorpus registers n keys and returns them.
func registerCorpus(t *testing.T, c *Cluster, n int) []keys.Key {
	t.Helper()
	corpus := workload.GridCorpus(n)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	return corpus
}

// TestPooledConnectionsShared asserts the point of the pool: many
// concurrent discoveries multiplex over at most one connection per
// listener address instead of dialing per hop.
func TestPooledConnectionsShared(t *testing.T) {
	c := startTCP(t, 8)
	corpus := registerCorpus(t, c, 100)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := corpus[(w*13+i)%len(corpus)]
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
		t.Fatal(err)
	}

	conns, dials := c.PoolStats()
	if int(dials) > c.NumPeers() {
		t.Fatalf("400 discoveries cost %d dials; want at most one per peer (%d)",
			dials, c.NumPeers())
	}
	if conns > c.NumPeers() {
		t.Fatalf("pool holds %d conns for %d peers", conns, c.NumPeers())
	}
	if dials == 0 {
		t.Fatal("no dials recorded; counting is broken")
	}
}

// TestCancelMidRouteKeepsConnection cancels a discovery while its
// answer is held back and asserts what cancellation means on the
// one-way path: the caller returns promptly with the context error,
// its pending entry is gone at once (no frame chases the request), the
// late reply is dropped, and the shared connections serve the next
// discoveries without a single redial.
func TestCancelMidRouteKeepsConnection(t *testing.T) {
	c, faults, corpus := startFaultyTCP(t, 4, 30)
	for i := 0; i < 2; i++ { // warm the pool: every route, every reply path
		for _, k := range corpus {
			if res, err := c.Discover(k); err != nil || !res.Found {
				t.Fatalf("warm discover: %v", err)
			}
		}
	}
	_, dialsBefore := c.PoolStats()

	// Hold the next answer back until Stop, then cancel the call
	// waiting for it.
	faults.Inject(FaultRule{Type: frameResponse, Count: 1, Delay: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.DiscoverContext(ctx, corpus[0])
		done <- err
	}()
	for c.PendingCalls() == 0 {
		time.Sleep(time.Millisecond) // until the call is registered and sent
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call did not return while its answer was held back")
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d pending entries left behind by the cancelled call", n)
	}

	// The shared connections survived: the next discoveries succeed
	// without a single new dial.
	for _, k := range corpus[:5] {
		res, err := c.Discover(k)
		if err != nil || !res.Found {
			t.Fatalf("discover after cancel: %v", err)
		}
	}
	if _, dialsAfter := c.PoolStats(); dialsAfter != dialsBefore {
		t.Fatalf("cancellation cost %d redials; the pooled conns should survive",
			dialsAfter-dialsBefore)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}

// TestPoolEvictsDepartedPeers asserts removal and crash both evict
// the departed peer's pooled connection and traffic keeps flowing.
func TestPoolEvictsDepartedPeers(t *testing.T) {
	c := startTCP(t, 6)
	corpus := registerCorpus(t, c, 60)
	// Warm a connection to every peer.
	for _, k := range corpus {
		if res, err := c.Discover(k); err != nil || !res.Found {
			t.Fatalf("warm discover: %v", err)
		}
	}

	c.Mu.RLock()
	ids := c.Net.PeerIDs()
	removedAddr := c.addrs[ids[0]]
	crashedAddr := c.addrs[ids[1]]
	c.Mu.RUnlock()
	// Random routes need not touch every peer: pin both targets.
	for _, addr := range []string{removedAddr, crashedAddr} {
		if _, err := c.pool.get(context.Background(), addr); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.RemovePeer(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := poolHas(c, removedAddr); ok {
		t.Fatal("removed peer's connection still pooled")
	}
	for _, k := range corpus {
		if res, err := c.Discover(k); err != nil || !res.Found {
			t.Fatalf("discover after removal: %v", err)
		}
	}

	if _, err := c.Replicate(); err != nil {
		t.Fatal(err)
	}
	if err := c.FailPeer(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := poolHas(c, crashedAddr); ok {
		t.Fatal("crashed peer's connection still pooled")
	}
	if _, lost, err := c.Recover(); err != nil || len(lost) != 0 {
		t.Fatalf("recover: lost=%v err=%v", lost, err)
	}
	for _, k := range corpus {
		if res, err := c.Discover(k); err != nil || !res.Found {
			t.Fatalf("discover after crash+recover: %v", err)
		}
	}
}

func poolHas(c *Cluster, addr string) (*poolConn, bool) {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	pc, ok := c.pool.conns[addr]
	return pc, ok
}

// TestForwardRetriesStaleAddress drives the rename/removal race window
// directly: a hop sent to an address whose listener is gone must evict,
// re-resolve the node's current host once, and be answered from there —
// straight to the return address the hop carries, here a bare listener
// standing in for the originator.
func TestForwardRetriesStaleAddress(t *testing.T) {
	c := startTCP(t, 5)
	corpus := registerCorpus(t, c, 40)
	c.Mu.RLock()
	gone := c.Net.PeerIDs()[0]
	staleAddr := c.addrs[gone]
	c.Mu.RUnlock()
	if err := c.RemovePeer(gone); err != nil {
		t.Fatal(err)
	}
	// The handed-off nodes now live elsewhere. The departed id keeps its
	// dead address, the way a hop that resolved it before the removal
	// holds it.
	c.Mu.Lock()
	c.addrs[gone] = staleAddr
	c.Mu.Unlock()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	_, dialsBefore := c.PoolStats()
	h := overlay.Hop{Key: corpus[0], At: corpus[0], Physical: 1, Origin: 99, ReplyTo: ln.Addr().String()}
	if err := (link{c}).Send(context.Background(), gone, h); err != nil {
		t.Fatalf("send to a stale address did not recover: %v", err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("no answer reached the return address: %v", err)
	}
	defer conn.Close()
	typ, id, _, payload, err := newFrameConn(conn).readFrame()
	if err != nil || typ != frameResponse || id != h.Origin {
		t.Fatalf("answer frame: type %d id %d err %v", typ, id, err)
	}
	var rep overlay.Reply
	if err := Unmarshal(payload, (*reply)(&rep)); err != nil {
		t.Fatal(err)
	}
	if !rep.Found || len(rep.Values) != 1 || rep.Values[0] != string(corpus[0]) {
		t.Fatalf("answer after re-resolve: %+v", rep)
	}
	if _, dials := c.PoolStats(); dials-dialsBefore > int64(c.NumPeers()) {
		t.Fatalf("re-resolve cost %d dials", dials-dialsBefore)
	}
}

// TestPoolDrainsOnStop asserts Stop leaves no pooled connections
// behind.
func TestPoolDrainsOnStop(t *testing.T) {
	c := startTCP(t, 6)
	corpus := registerCorpus(t, c, 40)
	for _, k := range corpus {
		if res, err := c.Discover(k); err != nil || !res.Found {
			t.Fatalf("warm discover: %v", err)
		}
	}
	if conns, _ := c.PoolStats(); conns == 0 {
		t.Fatal("pool empty before Stop; nothing to drain")
	}
	c.Stop()
	if conns, _ := c.PoolStats(); conns != 0 {
		t.Fatalf("pool holds %d connections after Stop", conns)
	}
}

// TestWireValuesSorted pins the deterministic wire contract: a key
// with several values comes back sorted regardless of map iteration
// order.
func TestWireValuesSorted(t *testing.T) {
	c := startTCP(t, 4)
	vals := []string{"ep-c", "ep-a", "ep-b", "ep-d"}
	for _, v := range vals {
		if err := c.Register("pdgesv", v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		res, err := c.Discover("pdgesv")
		if err != nil || !res.Found {
			t.Fatalf("discover: %v", err)
		}
		want := []string{"ep-a", "ep-b", "ep-c", "ep-d"}
		if len(res.Values) != len(want) {
			t.Fatalf("values = %v", res.Values)
		}
		for j := range want {
			if res.Values[j] != want[j] {
				t.Fatalf("values not sorted on the wire: %v", res.Values)
			}
		}
	}
}

// TestFrameRoundTrip pins the frame codec: request and response
// survive an encode/decode round-trip byte for byte.
func TestFrameRoundTrip(t *testing.T) {
	req := overlay.Hop{Key: "pdgesv", At: "pd",
		Logical: 7, Physical: 3, Redirects: 2, Origin: 41, ReplyTo: "127.0.0.1:7001"}
	buf := Marshal((*hop)(&req))
	var got overlay.Hop
	if err := Unmarshal(buf, (*hop)(&got)); err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("request round-trip: got %+v want %+v", got, req)
	}

	resp := overlay.Reply{Found: true, Values: []string{"a", "b"},
		Logical: 9, Physical: 4, Err: "boom", Retry: true}
	buf = Marshal((*reply)(&resp))
	var gotR overlay.Reply
	if err := Unmarshal(buf, (*reply)(&gotR)); err != nil {
		t.Fatal(err)
	}
	if gotR.Found != resp.Found || gotR.Logical != resp.Logical ||
		gotR.Physical != resp.Physical || gotR.Err != resp.Err || !gotR.Retry ||
		len(gotR.Values) != 2 || gotR.Values[0] != "a" || gotR.Values[1] != "b" {
		t.Fatalf("response round-trip: got %+v want %+v", gotR, resp)
	}

	var truncated overlay.Hop
	if err := Unmarshal(buf[:1], (*hop)(&truncated)); err == nil {
		t.Fatal("truncated payload decoded without error")
	}

	resp = overlay.Reply{Dropped: true}
	buf = appendPayload(buf[:0], (*reply)(&resp))
	gotR = overlay.Reply{}
	if err := Unmarshal(buf, (*reply)(&gotR)); err != nil {
		t.Fatal(err)
	}
	if !gotR.Dropped || gotR.Found {
		t.Fatalf("dropped response round-trip: got %+v", gotR)
	}

	q := queryReq{QuerySpec: core.QuerySpec{Range: true, Lo: "aa", Hi: "zz", Limit: 10}, Entry: "m"}
	buf = Marshal(&q)
	var gotQ queryReq
	if err := Unmarshal(buf, &gotQ); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQ, q) {
		t.Fatalf("query round-trip: got %+v want %+v", gotQ, q)
	}
	neg := queryReq{QuerySpec: core.QuerySpec{Prefix: "pd", Limit: -5}}
	buf = appendPayload(buf[:0], &neg)
	if err := Unmarshal(buf, &gotQ); err != nil {
		t.Fatal(err)
	}
	if gotQ.Limit != 0 {
		t.Fatalf("negative limit must normalize to 0 on the wire, got %d", gotQ.Limit)
	}

	end := streamEnd{QueryResult: counters(11, 5, 42), Err: "halt"}
	buf = Marshal(&end)
	var gotE streamEnd
	if err := Unmarshal(buf, &gotE); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotE, end) {
		t.Fatalf("stream-end round-trip: got %+v want %+v", gotE, end)
	}

	batch := []keys.Key{"pdgesv", "pdgetrf", "s3l_fft"}
	progress := streamEnd{QueryResult: counters(3, 1, 6)}
	gotB, gotP, err := decodeStreamBatch(appendStreamBatch(nil, batch, &progress))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, batch) {
		t.Fatalf("stream batch round-trip: %v", gotB)
	}
	if !reflect.DeepEqual(gotP, progress) {
		t.Fatalf("stream progress round-trip: got %+v want %+v", gotP, progress)
	}
	corrupt := binary.AppendUvarint(nil, 0)
	corrupt = binary.AppendUvarint(corrupt, 0)
	corrupt = binary.AppendUvarint(corrupt, 0)
	corrupt = binary.AppendUvarint(corrupt, 1<<40)
	if _, _, err := decodeStreamBatch(corrupt); err == nil {
		t.Fatal("implausible stream count decoded without error")
	}
}

// TestHostileCountersRefused pins the decode of an integer beyond int.
// No encoder writes a negative one, and a uvarint of 2⁶³ or more would
// come back negative: a REQUEST whose Redirects wrapped would pass
// MaxRedirects and bounce off its own host without end. Each payload
// is the field's neighbours in hex around the counter under test.
func TestHostileCountersRefused(t *testing.T) {
	for _, c := range []struct {
		name          string
		msg           func() Message
		before, after string
	}{
		{"REQUEST redirects", func() Message { return new(hop) }, "016b00016b0000", "0000"},
		{"QROUTE visited", func() Message { return &hop{Query: true} }, "016b00", "016b0000000000"},
		{"RESPONSE logical", func() Message { return new(reply) }, "00000000", "00000000"},
		{"JOIN capacity", func() Message { return new(JoinRequest) }, "05026162024b43075b3a3a315d3a39", ""},
	} {
		for _, n := range []uint64{math.MaxInt, 1 << 63, math.MaxUint64} {
			before, _ := hex.DecodeString(c.before)
			after, _ := hex.DecodeString(c.after)
			p := append(binary.AppendUvarint(before, n), after...)
			err := Unmarshal(p, c.msg())
			if fits := n <= math.MaxInt; fits != (err == nil) {
				t.Errorf("%s = %d: decode error %v", c.name, n, err)
			}
		}
	}
}
