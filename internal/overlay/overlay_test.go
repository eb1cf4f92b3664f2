package overlay

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/trace"
)

// fakeLink records what the runtime asks of its link. Ship installs
// through the runtime, as both real links' receiving ends do, unless
// told to fail. Send and Reply are the routed path in memory: a hop is
// served on a goroutine of its own, as an endpoint would, and an answer
// goes straight to the pending table — unless onSend or onReply, which
// see every hop and answer with its 1-based count, lose, fail or
// double it.
type fakeLink struct {
	rt      *Runtime
	upErr   error
	shipErr error
	ups     []keys.Key
	downs   []keys.Key
	renames [][2]keys.Key
	shipped int

	mu      sync.Mutex
	sends   int
	replies int
	onSend  func(n int, h Hop) (drop bool, err error)
	onReply func(n int, rep Reply) (drop, dup bool)
	hops    sync.WaitGroup
}

func (f *fakeLink) PeerUp(id keys.Key) error {
	if f.upErr != nil {
		return f.upErr
	}
	f.ups = append(f.ups, id)
	return nil
}

func (f *fakeLink) PeerDown(id keys.Key) { f.downs = append(f.downs, id) }

func (f *fakeLink) Rename(from, to keys.Key) { f.renames = append(f.renames, [2]keys.Key{from, to}) }

func (f *fakeLink) Ship(_ trace.Context, b core.ReplicaBatch) (int, error) {
	if f.shipErr != nil {
		return 0, f.shipErr
	}
	f.shipped++
	return f.rt.InstallReplicas(b), nil
}

func (f *fakeLink) Send(_ context.Context, to keys.Key, h Hop) error {
	f.mu.Lock()
	f.sends++
	var drop bool
	var err error
	if f.onSend != nil {
		drop, err = f.onSend(f.sends, h) // under mu: the hooks run one at a time
	}
	f.mu.Unlock()
	if drop || err != nil {
		return err
	}
	f.hops.Add(1)
	go func() {
		defer f.hops.Done()
		f.rt.ServeHop(&to, &h)
	}()
	return nil
}

func (f *fakeLink) Reply(h Hop, rep Reply) error {
	f.mu.Lock()
	f.replies++
	var drop, dup bool
	if f.onReply != nil {
		drop, dup = f.onReply(f.replies, rep)
	}
	f.mu.Unlock()
	if !drop {
		f.rt.Complete(h.Origin, rep)
	}
	if dup {
		f.rt.Complete(h.Origin, rep)
	}
	return nil
}

// hook installs the fault hooks; nil clears one.
func (f *fakeLink) hook(onSend func(int, Hop) (bool, error), onReply func(int, Reply) (bool, bool)) {
	f.mu.Lock()
	f.onSend, f.onReply = onSend, onReply
	f.mu.Unlock()
}

// sent reports how many hops the link was handed.
func (f *fakeLink) sent() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sends
}

// start brings up a runtime of n peers over a fake link, with its
// sweeper running, and registers nkeys keys.
func start(t *testing.T, n, nkeys int) (*Runtime, *fakeLink) {
	t.Helper()
	r := new(Runtime)
	r.Init(keys.LowerAlnum, 7, Options{Obs: obs.NewMetrics(obs.NewRegistry())})
	f := &fakeLink{rt: r}
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		r.Sweep()
	}()
	t.Cleanup(func() {
		r.Halt()
		<-swept
		f.hops.Wait()
	})
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 100
	}
	if err := r.Attach(f, caps); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nkeys; i++ {
		if err := r.Register(keys.Key(fmt.Sprintf("svc%03d", i)), "v"); err != nil {
			t.Fatal(err)
		}
	}
	return r, f
}

// ringIDs returns the peer ids in ring order.
func ringIDs(r *Runtime) []keys.Key {
	r.Mu.RLock()
	defer r.Mu.RUnlock()
	return r.Net.PeerIDs()
}

// A batch the link fails to ship is installed directly: the tick
// reports the same count, leaves the same replica state, and a crash
// recovers from it all the same.
func TestShipErrorInstallsDirectly(t *testing.T) {
	shipped, fs := start(t, 5, 60)
	direct, fd := start(t, 5, 60)
	fd.shipErr = errors.New("link down")

	ns, err := shipped.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	nd, err := direct.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	if fs.shipped == 0 || fd.shipped != 0 {
		t.Fatalf("batches through the link: %d and %d, want some and none", fs.shipped, fd.shipped)
	}
	if ns == 0 || ns != nd {
		t.Fatalf("installed %d through the link, %d directly", ns, nd)
	}
	if s, d := shipped.ReplicationStats(), direct.ReplicationStats(); s != d {
		t.Fatalf("replication counters differ: %+v vs %+v", s, d)
	}
	victim := direct.PeerSummaries()[2].ID
	if err := direct.FailPeer(victim); err != nil {
		t.Fatal(err)
	}
	if _, lost, err := direct.Recover(); err != nil || len(lost) != 0 {
		t.Fatalf("recover after a direct install: lost %v, err %v", lost, err)
	}
	if err := direct.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The link hears of every id a balancing round retired, paired in
// sorted order with the ids the round introduced, and of nothing else.
// A rename keeps the peer count, so the two lists cannot differ in
// length: there is no surplus endpoint to retire and no peer left
// without one.
func TestRewirePairsRenamedIDsInSortedOrder(t *testing.T) {
	r, f := start(t, 6, 0)
	r.Mu.Lock()
	defer r.Mu.Unlock()
	b := r.Net.PeerIDs()
	// A rename keeps a peer between its ring neighbours. Rename three
	// peers out of order, then move one more onto an id the round just
	// vacated: an id still on the ring afterwards needs no rewiring,
	// whichever peer carries it.
	for _, mv := range [][2]keys.Key{{b[4], b[4] + "x"}, {b[1], b[1] + "x"}, {b[3], b[3] + "x"}, {b[2], b[3]}} {
		if err := r.Net.RenamePeer(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	r.rewireLocked(b)
	want := [][2]keys.Key{{b[1], b[1] + "x"}, {b[2], b[3] + "x"}, {b[4], b[4] + "x"}}
	if !reflect.DeepEqual(f.renames, want) {
		t.Fatalf("renames = %v, want %v", f.renames, want)
	}
	if len(f.downs) != 0 {
		t.Fatalf("rewiring retired endpoints %v", f.downs)
	}
	f.renames = nil
	r.rewireLocked(r.Net.PeerIDs())
	if len(f.renames) != 0 {
		t.Fatalf("a round without renames rewired %v", f.renames)
	}
}

// Every departure retires the endpoint exactly once — a leave, a
// crash, and a join that fails after its endpoint came up — and a
// refused departure retires nothing.
func TestPeerDownOncePerDeparture(t *testing.T) {
	r, f := start(t, 4, 20)
	ids := ringIDs(r)
	if len(f.ups) != len(ids) {
		t.Fatalf("endpoints up %v for peers %v", f.ups, ids)
	}
	if err := r.RemovePeer(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.FailPeer(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := r.RemovePeer("nosuchpeer"); err == nil {
		t.Fatal("removing an unknown peer succeeded")
	}
	if want := []keys.Key{ids[0], ids[1]}; !reflect.DeepEqual(f.downs, want) {
		t.Fatalf("PeerDown calls = %v, want %v", f.downs, want)
	}
	f.ups, f.downs = nil, nil
	if _, err := r.AddPeer(0); err == nil { // the ring refuses capacity 0
		t.Fatal("joining with capacity 0 succeeded")
	}
	if len(f.ups) != 1 || !reflect.DeepEqual(f.downs, f.ups) {
		t.Fatalf("failed join: endpoints up %v, down %v", f.ups, f.downs)
	}
}

// A peer whose endpoint cannot come up never enters the ring.
func TestAddPeerEndpointFailureLeavesRingUnchanged(t *testing.T) {
	r, f := start(t, 3, 30)
	before := ringIDs(r)
	f.upErr = errors.New("bind: address already in use")
	if _, err := r.AddPeer(100); !errors.Is(err, f.upErr) {
		t.Fatalf("AddPeer = %v, want the link's error", err)
	}
	if after := ringIDs(r); !reflect.DeepEqual(after, before) {
		t.Fatalf("ring changed: %v -> %v", before, after)
	}
	if r.NumPeers() != 3 {
		t.Fatalf("NumPeers = %d", r.NumPeers())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.downs) != 0 {
		t.Fatalf("PeerDown for an endpoint that never came up: %v", f.downs)
	}
	f.upErr = nil
	if _, err := r.AddPeer(100); err != nil {
		t.Fatalf("AddPeer after the link healed: %v", err)
	}
}

// failingSource yields one key per pull and fails on pull fail,
// counting its halts.
type failingSource struct {
	pulls, fail, halts int
}

var errSourceFailed = errors.New("source failed")

func (f *failingSource) Pull(_ context.Context, dst []keys.Key) ([]keys.Key, bool, error) {
	if f.pulls++; f.pulls == f.fail {
		return dst, false, errSourceFailed
	}
	return append(dst, keys.Key(fmt.Sprintf("k%d", f.pulls))), true, nil
}

func (f *failingSource) Stats() core.QueryResult { return core.QueryResult{NodesVisited: f.pulls} }
func (f *failingSource) Halt()                   { f.halts++ }

// However a stream ends — drained, closed early, its context
// cancelled, the cluster stopped under it, its source failing — it
// reports the matching error, yields nothing more, halts its source
// and observes the query latency exactly once, whatever the consumer
// calls afterwards. A stream serving a walk routed elsewhere (WalkFrom)
// observes none: its client does.
func TestStreamEndsOnce(t *testing.T) {
	r, _ := start(t, 3, 100) // several chunks
	ctx := context.Background()

	before := r.Met.QueryLatency.Count()
	src := &failingSource{fail: 3}
	s := r.Stream(ctx, src, time.Now())
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	s.Close()
	if _, ok := s.Next(); ok || n != 2 || !errors.Is(s.Err(), errSourceFailed) || s.Stats().NodesVisited != 3 {
		t.Errorf("failing source: %d keys (want 2), err %v, stats %+v, more after the end: %v", n, s.Err(), s.Stats(), ok)
	}
	if got := r.Met.QueryLatency.Count() - before; src.halts != 1 || got != 1 {
		t.Errorf("failing source: halted %d times, latency observed %d times", src.halts, got)
	}

	before = r.Met.QueryLatency.Count()
	r.Mu.RLock()
	root, _ := r.Net.Root()
	r.Mu.RUnlock()
	s = r.WalkFrom(ctx, core.QuerySpec{}, root, core.QueryResult{}, trace.Context{})
	n = 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	if n != 100 || s.Err() != nil || !s.Ended() {
		t.Errorf("walk from the root: %d keys, err %v, ended %v", n, s.Err(), s.Ended())
	}
	if got := r.Met.QueryLatency.Count() - before; got != 0 {
		t.Errorf("a served walk observed the query latency %d times", got)
	}

	for _, tc := range []struct {
		name string
		end  func(s *Stream, cancel func()) // after the first key
		keys int
		err  error
	}{
		{"drained", func(*Stream, func()) {}, 100, nil},
		{"closed", func(s *Stream, _ func()) { s.Close() }, 1, nil},
		{"cancelled", func(_ *Stream, cancel func()) { cancel() }, chunkKeys, context.Canceled},
		{"stopped", func(*Stream, func()) { r.Halt() }, chunkKeys, ErrStopped},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := r.Met.QueryLatency.Count()
		s, err := r.StreamQuery(ctx, core.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			if n++; n == 1 {
				tc.end(s, cancel)
			}
		}
		s.Close()
		if _, ok := s.Next(); ok || n != tc.keys || !errors.Is(s.Err(), tc.err) {
			t.Errorf("%s: %d keys (want %d), err %v (want %v), more after the end: %v", tc.name, n, tc.keys, s.Err(), tc.err, ok)
		}
		if got := r.Met.QueryLatency.Count() - before; got != 1 {
			t.Errorf("%s: query latency observed %d times", tc.name, got)
		}
	}
}
