//go:build goexperiment.synctest

// Bubble twins: fault tests that run a cluster on an in-process net
// inside a testing/synctest bubble, where time is virtual — a wait of
// seconds costs no wall time and is measured exactly. Run them with
//
//	GOEXPERIMENT=synctest go test -run Bubble ./internal/transport
//
// Everything the bubble starts must end before synctest.Run returns,
// so each test stops its cluster inside the bubble.

package transport

import (
	"runtime"
	"testing"
	"testing/synctest"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/memnet"
)

// TestBubbleDroppedForwardIsReissued is TestDroppedForwardIsReissued's
// REQUEST half on the virtual clock, where the re-issue bound is exact:
// the sweeper expires the lost call between one and two half-second
// periods after it was sent, and the re-issue is answered at once.
func TestBubbleDroppedForwardIsReissued(t *testing.T) {
	inBubble(func() {
		faults := NewFaults(11)
		faults.Net = memnet.New()
		caps := make([]int, 6)
		for i := range caps {
			caps[i] = 1 << 20
		}
		c, err := StartOpts(keys.LowerAlnum, caps, 3, Options{Net: faults})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Stop()
		corpus := registerCorpus(t, c, 80)
		for _, k := range corpus { // warm the pool
			if _, err := c.Discover(k); err != nil {
				t.Fatal(err)
			}
		}
		_, dialsBefore := c.PoolStats()
		faults.Inject(FaultRule{Type: frameRequest, Count: 1, Drop: true})
		began := time.Now()
		res, err := c.Discover(corpus[17])
		took := time.Since(began)
		if err != nil || !res.Found || len(res.Values) != 1 || res.Values[0] != string(corpus[17]) {
			t.Fatalf("discover across a dropped frame: %+v, %v", res, err)
		}
		if rulesLeft(faults) != 0 {
			t.Fatal("the drop rule never matched")
		}
		if took < reissueAfter || took > 2*reissueAfter {
			t.Fatalf("re-issue landed %v after the drop, want %v to %v", took, reissueAfter, 2*reissueAfter)
		}
		t.Logf("re-issue landed %v of virtual time after the drop", took)
		if _, dials := c.PoolStats(); dials != dialsBefore {
			t.Fatalf("a dropped frame cost %d redials", dials-dialsBefore)
		}
		if n := c.PendingCalls(); n != 0 {
			t.Fatalf("%d pending entries leaked", n)
		}
	})
}

// reissueAfter is the runtime's sweep period (overlay/route.go).
const reissueAfter = 500 * time.Millisecond

// inBubble runs f in a bubble. A channel belongs for good to the bubble
// it was made in, or to none, and a bubble's clock only advances while
// it waits on its own channels; the runtime recycles its pending calls,
// channel and all, through a sync.Pool. Two collections empty that pool
// before and after the bubble, so neither side is handed the other's
// channel.
func inBubble(f func()) {
	emptyPools := func() { runtime.GC(); runtime.GC() }
	emptyPools()
	synctest.Run(f)
	emptyPools()
}
