package live

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// TestReplicateRacingWritesConverges runs two loops of replication
// ticks back to back while a writer registers and unregisters versioned
// keys (and joins peers) and a reader discovers: batches planned under
// the lock are installed after it is released, so nodes change, vanish
// and move while their snapshots are in flight. Every tenth write the
// writer ticks too; when its tick returns, every replica must hold what
// its node held at that tick (loads aside: the reader keeps moving
// them), whatever the other loops' ticks planned earlier. One quiet
// tick afterwards must leave every node's replica on its host's
// successor and equal to the node, with no replica left over.
func TestReplicateRacingWritesConverges(t *testing.T) {
	corpus := workload.GridCorpus(400)
	version := func(i int) keys.Key { return corpus[i*13%len(corpus)] + keys.Key(fmt.Sprintf("w%d", i)) }
	for round := 0; round < 5; round++ {
		c := startCluster(t, 8)
		for _, k := range corpus {
			if err := c.Register(k, string(k)); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		loop := func(step func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						step(i)
					}
				}
			}()
		}
		loop(func(int) { _, _ = c.Replicate() })
		loop(func(int) { _, _ = c.Replicate() })
		loop(func(i int) { _, _ = c.Discover(corpus[i%len(corpus)]) })
		for i := 0; i < 600; i++ {
			if err := c.Register(version(i), "v"); err != nil {
				t.Fatal(err)
			}
			if i >= 20 {
				if _, err := c.Unregister(version(i-20), "v"); err != nil {
					t.Fatal(err)
				}
			}
			if i%150 == 0 {
				if _, err := c.AddPeer(100); err != nil {
					t.Fatal(err)
				}
			}
			if i%10 == 0 {
				if _, err := c.Replicate(); err != nil {
					t.Fatal(err)
				}
				if err := replicasExact(c, false); err != nil {
					close(stop)
					wg.Wait()
					t.Fatalf("round %d, write %d: %v", round, i, err)
				}
			}
		}
		close(stop)
		wg.Wait()
		if _, err := c.Replicate(); err != nil {
			t.Fatal(err)
		}
		if err := replicasExact(c, true); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// replicasExact checks the replica store against the nodes, under the
// read lock; current-unit loads are compared only if loads is set.
func replicasExact(c *Cluster, loads bool) error {
	c.Mu.RLock()
	defer c.Mu.RUnlock()
	net := c.Net
	if err := net.Validate(); err != nil {
		return err
	}
	if net.NumReplicas() != net.NumNodes() {
		return fmt.Errorf("%d replicas of %d nodes", net.NumReplicas(), net.NumNodes())
	}
	for _, id := range net.PeerIDs() {
		p, _ := net.Peer(id)
		succ, _ := net.Ring().Successor(id)
		for _, n := range p.Nodes() {
			want := core.Replica{Key: n.Key, Data: slices.Clone(n.Data), LoadPrev: n.LoadPrev, LoadCur: n.Load()}
			got, at, _ := net.ReplicaOf(n.Key)
			if at != succ {
				return fmt.Errorf("replica of %q on %q, want its host's successor %q", n.Key, at, succ)
			}
			if !loads {
				got.LoadCur, want.LoadCur = 0, 0
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("replica of %q is stale:\n  got  %+v\n  want %+v", n.Key, got, want)
			}
		}
	}
	return nil
}
