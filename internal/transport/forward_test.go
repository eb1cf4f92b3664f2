package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/workload"
)

// The failure contract of the one-way routed path — a lost hop is
// noticed and re-issued, a duplicate reply dropped, attempts bounded,
// nothing left pending — is the runtime's and is tested against a fake
// link in internal/overlay. The tests below hold what the sockets add:
// injected wire faults reach routed frames, a stale address is redialed
// (pool_test.go), an unreachable return address ends in the typed
// error, a crash under load loses no call, and a hop costs no
// allocation of its own. The overlays, corpora and fault plans are
// seeded, and every fault rule is a countdown, so each test replays the
// same schedule.

// reissueBound is how long one lost frame may delay a call: the
// runtime's sweeper expires it within two half-second periods; the rest
// is slack for a loaded machine.
const reissueBound = 3 * time.Second

// startFaultyTCP starts an n-listener cluster wired to a fresh fault
// plan and registers a corpus on it.
func startFaultyTCP(t *testing.T, n, corpus int) (*Cluster, *Faults, []keys.Key) {
	t.Helper()
	faults := NewFaults(11)
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 1 << 20
	}
	c, err := StartOpts(keys.LowerAlnum, caps, 3, Options{Net: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, faults, registerCorpus(t, c, corpus)
}

// rulesLeft reports how many fault rules are still armed.
func rulesLeft(f *Faults) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.rules)
}

// TestDroppedForwardIsReissued drops one REQUEST on the wire (and then
// one QROUTE): the frame vanishes without breaking anything — send
// reports no error, no connection is evicted — and the call still
// completes through the originator's re-issue within reissueBound.
func TestDroppedForwardIsReissued(t *testing.T) {
	c, faults, corpus := startFaultyTCP(t, 6, 80)
	key := corpus[17]
	for _, k := range corpus { // warm the pool
		if _, err := c.Discover(k); err != nil {
			t.Fatal(err)
		}
	}
	_, dialsBefore := c.PoolStats()
	faults.Inject(FaultRule{Type: frameRequest, Count: 1, Drop: true})
	began := time.Now()
	res, err := c.Discover(key)
	if err != nil || !res.Found || len(res.Values) != 1 || res.Values[0] != string(key) {
		t.Fatalf("discover across a dropped frame: %+v, %v", res, err)
	}
	if rulesLeft(faults) != 0 {
		t.Fatal("the drop rule never matched")
	}
	if d := time.Since(began); d > reissueBound {
		t.Fatalf("re-issue took %v, bound %v", d, reissueBound)
	}
	if _, dials := c.PoolStats(); dials != dialsBefore {
		t.Fatalf("a dropped frame cost %d redials", dials-dialsBefore)
	}

	// The query route rides the same path.
	faults.Inject(FaultRule{Type: frameQRoute, Count: 1, Drop: true})
	began = time.Now()
	ws, err := c.StreamQuery(context.Background(), core.QuerySpec{Prefix: key[:2]})
	if err != nil {
		t.Fatalf("query across a dropped route frame: %v", err)
	}
	got := 0
	for _, ok := ws.Next(); ok; _, ok = ws.Next() {
		got++
	}
	if err := errors.Join(ws.Err(), ws.Close()); err != nil || got == 0 {
		t.Fatalf("query across a dropped route frame: %d keys, %v", got, err)
	}
	if d := time.Since(began); d > reissueBound {
		t.Fatalf("query re-issue took %v, bound %v", d, reissueBound)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}

// TestDuplicateResponseDiscarded writes a RESPONSE twice on the wire:
// the first copy completes the call, the second finds no pending entry
// and is dropped — no wrong answer for a later call, no leaked entry.
func TestDuplicateResponseDiscarded(t *testing.T) {
	c, faults, corpus := startFaultyTCP(t, 4, 40)
	for i, k := range corpus {
		if i%4 == 0 {
			faults.Inject(FaultRule{Type: frameResponse, Count: 1, Dup: true})
		}
		res, err := c.Discover(k)
		if err != nil || !res.Found || len(res.Values) != 1 || res.Values[0] != string(k) {
			t.Fatalf("discover %q beside duplicated replies: %+v, %v", k, res, err)
		}
	}
	if rulesLeft(faults) != 0 {
		t.Fatal("duplication rules never matched")
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}

// TestPartitionedReplyAddress cuts the originator's reply address off:
// every attempt's answer is undeliverable, and the call ends in the
// typed ErrNoReply after its bounded attempts instead of hanging.
func TestPartitionedReplyAddress(t *testing.T) {
	c, faults, corpus := startFaultyTCP(t, 5, 40)
	c.Mu.RLock()
	replyTo := c.servers[0].addr
	c.Mu.RUnlock()
	faults.Partition(replyTo)
	began := time.Now()
	_, err := c.Discover(corpus[3])
	if !errors.Is(err, overlay.ErrNoReply) {
		t.Fatalf("discover with the reply address partitioned: %v", err)
	}
	if d := time.Since(began); d > 3*reissueBound { // three attempts
		t.Fatalf("gave up after %v, bound %v", d, 3*reissueBound)
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
	faults.Heal(replyTo)
	if res, err := c.Discover(corpus[3]); err != nil || !res.Found {
		t.Fatalf("discover after heal: %+v, %v", res, err)
	}
}

// TestFailPeerWithRequestsInFlight crashes the very peer whose
// listener takes the replies while discoveries are in flight, then
// recovers: no call is lost (each returns, without error) and none is
// answered wrongly — a found key carries its own value, and only the
// degraded window between crash and recovery may miss a key.
func TestFailPeerWithRequestsInFlight(t *testing.T) {
	c := startTCP(t, 6)
	corpus := registerCorpus(t, c, 60)
	if _, err := c.Replicate(); err != nil {
		t.Fatal(err)
	}
	c.Mu.RLock()
	victim := c.servers[0].id
	c.Mu.RUnlock()

	var wg sync.WaitGroup
	var recovered sync.WaitGroup
	recovered.Add(1)
	const workers = 4
	going := make(chan struct{}, 2*workers) // one send per worker, two if it fails early
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { going <- struct{}{} }() // never leave the crash waiting
			check := func(i int, degraded bool) bool {
				k := corpus[(w*17+i)%len(corpus)]
				res, err := c.Discover(k)
				switch {
				case err != nil:
					t.Errorf("discover %q: %v", k, err)
				case res.Found && (len(res.Values) != 1 || res.Values[0] != string(k)):
					t.Errorf("discover %q answered %v", k, res.Values)
				case !res.Found && !degraded:
					t.Errorf("%q lost after recovery", k)
				default:
					return true
				}
				return false
			}
			for i := 0; i < 150; i++ {
				if i == 10 {
					going <- struct{}{}
				}
				if !check(i, true) {
					return
				}
			}
			recovered.Wait()
			for i := 0; i < len(corpus); i++ {
				if !check(i, false) {
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-going // crash mid-stream, not before the first call
	}
	if err := c.FailPeer(victim); err != nil {
		t.Error(err)
	}
	if _, lost, err := c.Recover(); err != nil || len(lost) != 0 {
		t.Errorf("recover: lost=%v err=%v", lost, err)
	}
	recovered.Done()
	wg.Wait()
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}

// TestAllocsPerHop is the guard on the routed path's per-hop cost. A
// hop decodes its frame (the key, the node and the reply address are
// the allocations), advances it and writes it on: no context, channel,
// closure or table entry per hop. The ceiling sits a fifth above the
// measured 3.6 allocations per discovery per physical hop, reply
// included.
func TestAllocsPerHop(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not stable under the race detector")
	}
	c := startTCP(t, 8)
	corpus := workload.GridCorpus(200)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range corpus { // warm the pool: dials allocate
		if _, err := c.Discover(k); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 2000
	hops, i := 0, 0
	perOp := testing.AllocsPerRun(runs, func() {
		res, err := c.Discover(corpus[i%len(corpus)])
		if err != nil || !res.Found {
			t.Fatalf("discover: %+v, %v", res, err)
		}
		hops += res.PhysicalHops
		i++
	})
	perHop := perOp * float64(runs+1) / float64(hops) // AllocsPerRun warms up with one extra call
	t.Logf("%.2f allocs per discovery, %.2f per physical hop", perOp, perHop)
	if perHop > 4.4 {
		t.Fatalf("%.2f allocations per discovery per physical hop, ceiling 4.4", perHop)
	}
}
