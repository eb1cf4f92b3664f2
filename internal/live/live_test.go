package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/leakcheck"
	"dlpt/internal/overlay"
	"dlpt/internal/workload"
)

func startCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 100
	}
	c, err := Start(keys.LowerAlnum, caps, 42)
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

func TestRegisterAndDiscover(t *testing.T) {
	c := startCluster(t, 8)
	corpus := workload.GridCorpus(100)
	for _, k := range corpus {
		if err := c.Register(k, "provider:"+string(k)); err != nil {
			t.Fatalf("register %q: %v", k, err)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range corpus {
		res, err := c.Discover(k)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("key %q not found", k)
		}
		if len(res.Values) != 1 || res.Values[0] != "provider:"+string(k) {
			t.Fatalf("values = %v", res.Values)
		}
		if res.PhysicalHops > res.LogicalHops {
			t.Fatalf("physical %d > logical %d", res.PhysicalHops, res.LogicalHops)
		}
	}
	res, err := c.Discover("zz_missing")
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("absent key found")
	}
}

func TestDiscoverEmptyTree(t *testing.T) {
	c := startCluster(t, 3)
	res, err := c.Discover("anything")
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("empty tree cannot satisfy")
	}
}

func TestConcurrentDiscovery(t *testing.T) {
	c := startCluster(t, 10)
	corpus := workload.GridCorpus(150)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := corpus[(w*37+i)%len(corpus)]
				res, err := c.Discover(k)
				if err != nil {
					errs <- err
					return
				}
				if !res.Found {
					errs <- fmt.Errorf("worker %d: %q not found", w, k)
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
}

func TestConcurrentDiscoveryWithWrites(t *testing.T) {
	c := startCluster(t, 8)
	corpus := workload.GridCorpus(300)
	initial := corpus[:150]
	extra := corpus[150:]
	for _, k := range initial {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Readers on the stable half.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				k := initial[(w*13+i)%len(initial)]
				res, err := c.Discover(k)
				if err != nil {
					errs <- err
					return
				}
				if !res.Found {
					errs <- fmt.Errorf("stable key %q lost during writes", k)
					return
				}
			}
		}(w)
	}
	// A writer registering the other half plus churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, k := range extra {
			if err := c.Register(k, string(k)); err != nil {
				errs <- err
				return
			}
			if i%30 == 0 {
				if _, err := c.AddPeer(50); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range extra {
		res, err := c.Discover(k)
		if err != nil || !res.Found {
			t.Fatalf("late key %q missing: %v", k, err)
		}
	}
}

func TestAddRemovePeers(t *testing.T) {
	c := startCluster(t, 4)
	corpus := workload.GridCorpus(60)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := c.AddPeer(100)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPeers() != 5 {
		t.Fatalf("NumPeers = %d", c.NumPeers())
	}
	if err := c.RemovePeer(id); err != nil {
		t.Fatal(err)
	}
	if c.NumPeers() != 4 {
		t.Fatalf("NumPeers = %d after removal", c.NumPeers())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range corpus {
		res, err := c.Discover(k)
		if err != nil || !res.Found {
			t.Fatalf("key %q lost after churn", k)
		}
	}
	if err := c.RemovePeer("ghost_peer_id"); err == nil {
		t.Fatalf("removing unknown peer must fail")
	}
}

func TestUnregister(t *testing.T) {
	c := startCluster(t, 4)
	if err := c.Register("dgemm", "h1"); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Unregister("dgemm", "h1"); !ok || err != nil {
		t.Fatalf("unregister = %v, %v", ok, err)
	}
	if ok, _ := c.Unregister("dgemm", "h1"); ok {
		t.Fatalf("double unregister must fail")
	}
	res, err := c.Discover("dgemm")
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("unregistered key still discoverable")
	}
}

// TestDiscoveredValuesAreCopies reads a discovered node's values while
// a writer adds and removes values and children at that node, whose
// slices shift in place under the write lock: the reply must own its
// values (under -race, a shared backing array is a reported race).
func TestDiscoveredValuesAreCopies(t *testing.T) {
	c := startCluster(t, 4)
	if err := c.Register("a", "a0"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(writerErr)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v, child := fmt.Sprintf("a%d", 1+i%5), keys.Key(fmt.Sprintf("a%c", 'b'+i%4))
			for _, reg := range []struct {
				k keys.Key
				v string
			}{{"a", v}, {child, "x"}} {
				if err := c.Register(reg.k, reg.v); err != nil {
					writerErr <- err
					return
				}
				if _, err := c.Unregister(reg.k, reg.v); err != nil {
					writerErr <- err
					return
				}
			}
		}
	}()
	found := 0
	for i := 0; i < 2000; i++ {
		res, err := c.Discover("a")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			continue // a read beside a compaction may miss; not this test's subject
		}
		found++
		seen := slices.Clone(res.Values)
		if !slices.Contains(seen, "a0") || !slices.IsSorted(seen) {
			t.Fatalf("values %q: want a0 among sorted values", seen)
		}
		runtime.Gosched()
		if !slices.Equal(res.Values, seen) {
			t.Fatalf("reply values changed under the caller: %q, then %q", seen, res.Values)
		}
	}
	close(stop)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("key a was never found")
	}
}

// drain pulls a stream to its end and returns its keys and totals.
func drain(t *testing.T, s *overlay.Stream) ([]keys.Key, core.QueryResult) {
	t.Helper()
	defer s.Close()
	var ks []keys.Key
	for k, ok := s.Next(); ok; k, ok = s.Next() {
		ks = append(ks, k)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return ks, s.Stats()
}

func TestRoutedRangeAndComplete(t *testing.T) {
	c := startCluster(t, 6)
	for _, k := range []keys.Key{"sgemm", "sgemv", "strsm", "dgemm", "saxpy"} {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	s, err := c.StreamQuery(ctx, core.QuerySpec{Prefix: "sge"})
	if err != nil {
		t.Fatal(err)
	}
	ks, st := drain(t, s)
	if len(ks) != 2 {
		t.Fatalf("completion of sge = %v", ks)
	}
	if st.NodesVisited == 0 {
		t.Fatalf("routed completion must visit nodes")
	}
	s, err = c.StreamQuery(ctx, core.QuerySpec{Range: true, Lo: "saxpy", Hi: "sgemv"})
	if err != nil {
		t.Fatal(err)
	}
	if ks, _ := drain(t, s); len(ks) != 3 {
		t.Fatalf("range saxpy..sgemv = %v", ks)
	}
	c.Stop()
	if _, err := c.StreamQuery(ctx, core.QuerySpec{Prefix: "s"}); !errors.Is(err, ErrStopped) {
		t.Fatalf("completion after stop = %v", err)
	}
	if _, err := c.StreamQuery(ctx, core.QuerySpec{Range: true, Lo: "a", Hi: "z"}); !errors.Is(err, ErrStopped) {
		t.Fatalf("range after stop = %v", err)
	}
}

// A consumer that walks away from a stream without Close leaves
// nothing behind on a running cluster: no goroutine parked on a
// hand-off until Stop, nothing to join.
func TestAbandonedStreamsHoldNoGoroutine(t *testing.T) {
	c := startCluster(t, 6)
	corpus := workload.GridCorpus(600) // more than any buffer between walker and consumer absorbs
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	before := len(leakcheck.Check(0))
	for i := 0; i < 200; i++ {
		s, err := c.StreamQuery(context.Background(), core.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Next(); !ok {
			t.Fatalf("stream %d yielded nothing: %v", i, s.Err())
		}
	}
	after := len(leakcheck.Check(0))
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = len(leakcheck.Check(0))
	}
	if after > before {
		t.Fatalf("%d goroutines before 200 abandoned streams, %d after", before, after)
	}
}

func TestSnapshotQueries(t *testing.T) {
	c := startCluster(t, 6)
	for _, k := range []keys.Key{"sgemm", "sgemv", "strsm", "dgemm"} {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	s, err := c.StreamQuery(ctx, core.QuerySpec{Prefix: "sge"})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := drain(t, s); len(got) != 2 {
		t.Fatalf("Complete = %v", got)
	}
	s, err = c.StreamQuery(ctx, core.QuerySpec{Range: true, Lo: "d", Hi: "e"})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := drain(t, s); len(got) != 1 || got[0] != keys.Key("dgemm") {
		t.Fatalf("Range = %v", got)
	}
	if c.NumNodes() == 0 {
		t.Fatalf("NumNodes = 0")
	}
}

// declared lists the declared keys of a cluster, stopped or not, by a
// completion over its network under the read lock.
func declared(c *Cluster) []keys.Key {
	c.Mu.RLock()
	defer c.Mu.RUnlock()
	return c.Net.Complete("", rand.New(rand.NewSource(1))).Keys
}

func TestStopIsIdempotentAndRejectsOps(t *testing.T) {
	c := startCluster(t, 3)
	if err := c.Register("k1", "v"); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop()
	if err := c.Register("k2", "v"); !errors.Is(err, ErrStopped) {
		t.Fatalf("Register after stop = %v", err)
	}
	if _, err := c.Discover("k1"); !errors.Is(err, ErrStopped) {
		t.Fatalf("Discover after stop = %v", err)
	}
	if _, err := c.AddPeer(10); !errors.Is(err, ErrStopped) {
		t.Fatalf("AddPeer after stop = %v", err)
	}
	if err := c.RemovePeer("x"); !errors.Is(err, ErrStopped) {
		t.Fatalf("RemovePeer after stop = %v", err)
	}
	if ok, err := c.Unregister("k1", "v"); ok || !errors.Is(err, ErrStopped) {
		t.Fatalf("Unregister after stop = %v, %v", ok, err)
	}
	if got := declared(c); !slices.Equal(got, []keys.Key{"k1"}) {
		t.Fatalf("the tree declares %q after refused mutations, want [k1]", got)
	}
}

// TestDifferentialAgainstSnapshot routes every key through the live
// cluster and cross-checks it against the corpus: a drained completion
// declares exactly the corpus, and each routed Discover returns the
// key's one value.
func TestDifferentialAgainstSnapshot(t *testing.T) {
	c := startCluster(t, 12)
	corpus := workload.GridCorpus(200)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := c.StreamQuery(context.Background(), core.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(corpus)
	keys.SortKeys(want)
	if got, _ := drain(t, s); !slices.Equal(got, want) {
		t.Fatalf("completion declares %d keys, the corpus %d", len(got), len(want))
	}
	for _, k := range corpus {
		res, err := c.Discover(k)
		if err != nil || !res.Found || !slices.Equal(res.Values, []string{string(k)}) {
			t.Fatalf("live lost %q: %v, %v", k, res.Values, err)
		}
	}
}
