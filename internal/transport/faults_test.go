package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
)

func TestFaultRuleMatchingAndCounts(t *testing.T) {
	f := NewFaults(1)
	f.Inject(FaultRule{Type: FrameApply, Addr: "a:1", Count: 2, Drop: true})

	// Non-matching type and address pass through.
	if _, err := f.onSend(FrameStatus, "a:1"); err != nil {
		t.Fatalf("type mismatch must pass: %v", err)
	}
	if _, err := f.onSend(FrameApply, "b:2"); err != nil {
		t.Fatalf("addr mismatch must pass: %v", err)
	}
	// Two matches consume the rule, the third passes.
	for i := 0; i < 2; i++ {
		if _, err := f.onSend(FrameApply, "a:1"); !errors.Is(err, ErrInjectedDrop) {
			t.Fatalf("match %d: want ErrInjectedDrop, got %v", i, err)
		}
	}
	if _, err := f.onSend(FrameApply, "a:1"); err != nil {
		t.Fatalf("expired rule must pass: %v", err)
	}
}

func TestFaultWildcardsAndOrder(t *testing.T) {
	f := NewFaults(1)
	f.Inject(FaultRule{Addr: "a:1", Count: 1, Dup: true})
	f.Inject(FaultRule{Drop: true}) // unlimited wildcard behind it

	act, err := f.onSend(FrameApply, "a:1")
	if err != nil || !act.dup {
		t.Fatalf("first rule must win: act=%+v err=%v", act, err)
	}
	// The dup rule expired; the wildcard drop now matches everything.
	if _, err := f.onSend(FrameJoin, "anything"); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("wildcard drop must match, got %v", err)
	}
}

func TestFaultDelayJitterDeterministic(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		f := NewFaults(seed)
		f.Inject(FaultRule{Delay: 50 * time.Millisecond, Jitter: 0.5})
		var out []time.Duration
		for i := 0; i < 5; i++ {
			act, err := f.onSend(FrameApply, "a:1")
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := 25*time.Millisecond, 75*time.Millisecond
			if act.delay < lo || act.delay > hi {
				t.Fatalf("delay %v outside [%v, %v]", act.delay, lo, hi)
			}
			out = append(out, act.delay)
		}
		return out
	}
	a, b := delays(7), delays(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestFaultPartitionHealClear(t *testing.T) {
	f := NewFaults(1)
	f.Partition("a:1", "b:2")
	cut := func(addr string) bool {
		_, err := f.onSend(FrameStatus, addr)
		return errors.Is(err, ErrPartitioned)
	}
	if !cut("a:1") || !cut("b:2") {
		t.Fatal("partition not recorded")
	}
	f.Heal("a:1")
	if cut("a:1") || !cut("b:2") {
		t.Fatal("heal must be per-address")
	}
	f.Inject(FaultRule{Drop: true})
	f.Clear()
	if cut("b:2") {
		t.Fatal("clear must lift partitions")
	}
	if _, err := f.onSend(FrameApply, "b:2"); err != nil {
		t.Fatalf("clear must drop rules: %v", err)
	}
}

// TestFaultsOnWire drives a real two-process-shaped cluster pair (one
// listener each, like dlptd) and proves drops and duplicates surface
// at the ControlRoundTrip layer: the drop is a send error, and the
// duplicated frame reaches the handler twice while the caller still
// sees exactly one reply.
func TestFaultsOnWire(t *testing.T) {
	faults := NewFaults(3)
	seen := make(chan byte, 8)
	opts := Options{
		Net: faults,
		Control: func(typ byte, payload []byte) (byte, []byte) {
			seen <- typ
			return FrameAck, Marshal(&Ack{})
		},
	}
	srv, err := StartOpts(keys.LowerAlnum, []int{8}, 1, Options{Control: opts.Control})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	var addr string
	for _, a := range srv.Addrs() {
		addr = a
	}
	cli, err := StartOpts(keys.LowerAlnum, []int{8}, 2, Options{Net: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// A dropped frame is a transport error on the sender.
	faults.Inject(FaultRule{Type: FrameApply, Count: 1, Drop: true})
	if _, _, err := cli.ControlRoundTrip(ctx, addr, FrameApply, Marshal(&Ack{})); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("want ErrInjectedDrop, got %v", err)
	}

	// A duplicated frame reaches the handler twice; one reply returns.
	faults.Inject(FaultRule{Type: FrameApply, Count: 1, Dup: true})
	rtyp, _, err := cli.ControlRoundTrip(ctx, addr, FrameApply, Marshal(&Ack{}))
	if err != nil || rtyp != FrameAck {
		t.Fatalf("dup round-trip: rtyp=%d err=%v", rtyp, err)
	}
	for i := 0; i < 2; i++ {
		select {
		case typ := <-seen:
			if typ != FrameApply {
				t.Fatalf("handler saw frame %d", typ)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("handler saw the frame %d times, want 2", i)
		}
	}

	// A partition cuts the send before any dial.
	faults.Partition(addr)
	if _, _, err := cli.ControlRoundTrip(ctx, addr, FrameStatus, nil); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}
	faults.Heal(addr)
	if _, _, err := cli.ControlRoundTrip(ctx, addr, FrameStatus, nil); err != nil {
		t.Fatalf("healed round-trip: %v", err)
	}
}

// TestFaultsReachEveryDialedFrame drops frames of the kinds a fault
// plan once never saw: one REPLICA, then one QUERY. The dropped REPLICA
// costs its batch the wire, not the tick — the runtime installs it
// directly, so every node written since the previous tick has its
// replica afterwards — and the dropped QUERY is sent again by
// StreamQuery's retry on the same pooled connection.
func TestFaultsReachEveryDialedFrame(t *testing.T) {
	c, faults, corpus := startFaultyTCP(t, 5, 60)
	if n, err := c.Replicate(); err != nil || n == 0 {
		t.Fatalf("fault-free replicate: %d snapshots, %v", n, err)
	}
	// A tick ships what changed since the previous one. A fresh key
	// beside every declared one gives every peer holding nodes a batch,
	// and every batch a fresh node.
	fresh := make([]keys.Key, len(corpus))
	for i, k := range corpus {
		fresh[i] = k + "zz"
		if err := c.Register(fresh[i], "ep://fresh"); err != nil {
			t.Fatal(err)
		}
	}
	faults.Inject(FaultRule{Type: frameReplica, Count: 1, Drop: true})
	if got, err := c.Replicate(); err != nil || got < len(fresh) {
		t.Fatalf("replicate across a dropped REPLICA: %d snapshots, %v; %d fresh keys", got, err, len(fresh))
	}
	if rulesLeft(faults) != 0 {
		t.Fatal("the REPLICA drop never matched")
	}
	c.Mu.RLock()
	for _, k := range fresh {
		if _, ok := c.Net.ReplicaHolder(k); !ok {
			c.Mu.RUnlock()
			t.Fatalf("fresh key %q has no replica: its dropped batch was not installed", k)
		}
	}
	replicas, nodes, err := c.Net.NumReplicas(), c.Net.NumNodes(), c.Net.Validate()
	c.Mu.RUnlock()
	if replicas != nodes || err != nil {
		t.Fatalf("after the tick: %d replicas of %d nodes, %v", replicas, nodes, err)
	}

	ctx := context.Background()
	for _, addr := range c.Addrs() { // warm the pool: a connection to every listener
		if _, err := c.pool.get(ctx, addr); err != nil {
			t.Fatal(err)
		}
	}
	_, dialsBefore := c.PoolStats()
	prefix := corpus[7][:2]
	wantKeys := 0
	for _, k := range append(corpus, fresh...) {
		if strings.HasPrefix(string(k), string(prefix)) {
			wantKeys++
		}
	}
	faults.Inject(FaultRule{Type: frameQuery, Count: 1, Drop: true})
	ws, err := c.StreamQuery(ctx, core.QuerySpec{Prefix: prefix})
	if err != nil {
		t.Fatalf("query across a dropped QUERY: %v", err)
	}
	got := 0
	for _, ok := ws.Next(); ok; _, ok = ws.Next() {
		got++
	}
	if err := errors.Join(ws.Err(), ws.Close()); err != nil || got != wantKeys {
		t.Fatalf("query across a dropped QUERY: %d keys, want %d, %v", got, wantKeys, err)
	}
	if rulesLeft(faults) != 0 {
		t.Fatal("the QUERY drop never matched")
	}
	if _, dials := c.PoolStats(); dials != dialsBefore {
		t.Fatalf("a dropped QUERY cost %d redials", dials-dialsBefore)
	}
}
