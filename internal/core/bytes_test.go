package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// TestBytesPerKey is the memory budget of the distributed tree: the
// live heap a 20,000-key grid catalogue adds to a 64-peer overlay, per
// key. It covers the nodes, their children and values, and the peers'
// and network's node indexes; the key strings themselves are the
// corpus's and are not counted. Two maps per node read 550 B/key;
// sorted slices read 266. The ceiling sits an eighth above that.
func TestBytesPerKey(t *testing.T) {
	if raceDetector {
		t.Skip("heap readings are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(1))
	net := core.NewNetwork(keys.LowerAlnum, core.PlacementLexicographic)
	for i := 0; i < 64; i++ {
		if err := net.JoinPeer(keys.LowerAlnum.RandomKey(r, 12, 12), 100, r); err != nil {
			t.Fatal(err)
		}
	}
	corpus := workload.GridCorpus(20000)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := int64(heap())
	for _, k := range corpus {
		if err := net.InsertData(k, string(k), r); err != nil {
			t.Fatal(err)
		}
	}
	perKey := float64(int64(heap())-before) / float64(len(corpus))
	runtime.KeepAlive(net)
	runtime.KeepAlive(corpus)
	t.Logf("%.0f B/key over %d keys, %d nodes", perKey, len(corpus), net.NumNodes())
	const ceiling = 300
	if perKey > ceiling {
		t.Fatalf("%.0f bytes per key, ceiling %d", perKey, ceiling)
	}
}
