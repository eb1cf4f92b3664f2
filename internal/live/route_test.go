package live

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/workload"
)

// TestManyDiscoveriesInFlight is the liveness gate: with several times
// more discoveries in flight than a mailbox holds, every one of them
// completes. A peer goroutine that blocked pushing into a full mailbox
// — its own, or that of a peer blocked on its — used to wedge the
// cluster for good at mailboxDepth+1 callers.
func TestManyDiscoveriesInFlight(t *testing.T) {
	for _, peers := range []int{2, 8} {
		c := startCluster(t, peers)
		corpus := workload.GridCorpus(200)
		for _, k := range corpus {
			if err := c.Register(k, string(k)); err != nil {
				t.Fatal(err)
			}
		}
		const callers, each = 4 * mailboxDepth, 50
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					k := corpus[(w*31+i)%len(corpus)]
					if res, err := c.Discover(k); err != nil || !res.Found {
						errs <- errors.Join(err, errors.New("discover "+string(k)+" failed"))
						return
					}
				}
			}(w)
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d peers: %d callers still waiting after 10s (%d calls pending): the cluster is wedged",
				peers, callers, c.PendingCalls())
		}
		close(errs)
		for err := range errs {
			t.Fatalf("%d peers: %v", peers, err)
		}
		if n := c.PendingCalls(); n != 0 {
			t.Fatalf("%d peers: %d pending entries leaked", peers, n)
		}
	}
}

// TestDeparturesWithDiscoveriesInFlight removes peers gracefully, then
// crashes one and recovers, while discoveries are in flight: a hop
// caught in a departed peer's mailbox is re-issued, so no call fails
// other than with a typed error, a graceful leave never makes a key
// look absent, a found key carries its own value, only the degraded
// window between crash and recovery may miss a key, and nothing is left
// pending.
func TestDeparturesWithDiscoveriesInFlight(t *testing.T) {
	c := startCluster(t, 8)
	corpus := workload.GridCorpus(120)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Replicate(); err != nil {
		t.Fatal(err)
	}
	const (
		leaving   = iota // peers leave gracefully: nothing may be missed
		degraded         // a peer crashed: misses allowed until Recover
		recovered        // all keys back
	)
	var stage sync.RWMutex // held for reading across one discovery
	now := leaving
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := corpus[(w*17+i)%len(corpus)]
				stage.RLock()
				was := now
				res, err := c.Discover(k)
				stage.RUnlock()
				switch {
				case err != nil && !errors.Is(err, overlay.ErrNoReply):
					t.Errorf("discover %q: untyped error %v", k, err)
				case err != nil:
					// Three attempts in a row ran into a departing peer.
				case res.Found && (len(res.Values) != 1 || res.Values[0] != string(k)):
					t.Errorf("discover %q answered %v", k, res.Values)
				case !res.Found && was != degraded:
					t.Errorf("%q reported absent (stage %d)", k, was)
				default:
					continue
				}
				return
			}
		}(w)
	}
	// setStage waits out the discoveries issued under the old stage.
	setStage := func(s int) {
		stage.Lock()
		now = s
		stage.Unlock()
	}
	ids := func() []keys.Key {
		c.Mu.RLock()
		defer c.Mu.RUnlock()
		return c.Net.PeerIDs()
	}
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		if err := c.RemovePeer(ids()[i]); err != nil {
			t.Error(err)
		}
	}
	if _, err := c.Replicate(); err != nil {
		t.Error(err)
	}
	setStage(degraded)
	if err := c.FailPeer(ids()[1]); err != nil {
		t.Error(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, lost, err := c.Recover(); err != nil || len(lost) != 0 {
		t.Errorf("recover: lost=%v err=%v", lost, err)
	}
	setStage(recovered)
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range corpus {
		if res, err := c.Discover(k); err != nil || !res.Found {
			t.Fatalf("%q after recovery: %+v, %v", k, res, err)
		}
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}

// TestAllocsPerDiscovery is the guard on the in-process routed path:
// hops travel by value through the mailboxes, so a discovery allocates
// its result (the value slice) and nothing per hop — no message, reply
// channel or closure. The ceiling sits a fifth above the measured
// count.
func TestAllocsPerDiscovery(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not stable under the race detector")
	}
	c := startCluster(t, 8)
	corpus := workload.GridCorpus(200)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	perOp := testing.AllocsPerRun(2000, func() {
		res, err := c.Discover(corpus[i%len(corpus)])
		if err != nil || !res.Found {
			t.Fatalf("discover: %+v, %v", res, err)
		}
		i++
	})
	t.Logf("%.2f allocs per discovery", perOp)
	const ceiling = 1.2
	if perOp > ceiling {
		t.Fatalf("%.2f allocations per discovery, ceiling %v", perOp, ceiling)
	}
}
